"""Unit tests for memory-request records."""

import pytest

from repro.sim.records import AccessType, MemoryRequest, next_request_id
from repro.sim.stats import Stats


def make_req(**kwargs):
    defaults = dict(addr=0x1000, access=AccessType.READ, qos_id=0, core_id=0)
    defaults.update(kwargs)
    return MemoryRequest(**defaults)


def attribute(created=-1, released=-1, arrived=-1, issued=-1):
    """Stamp a read, complete it at cycle 500 and return its class stats."""
    req = make_req()
    req.created_at, req.released_at = created, released
    req.arrived_mc_at, req.issued_at, req.completed_at = arrived, issued, 500
    stats = Stats()
    stats.record_completion(req)
    return stats.class_stats(req.qos_id)


class TestAccessType:
    def test_read_is_read(self):
        assert AccessType.READ.is_read
        assert not AccessType.WRITE.is_read
        assert not AccessType.WRITEBACK.is_read

    def test_memory_write_classification(self):
        assert not make_req().is_memory_write
        assert make_req(access=AccessType.WRITE).is_memory_write
        assert make_req(access=AccessType.WRITEBACK).is_memory_write


class TestRequestIds:
    def test_ids_are_unique_and_increasing(self):
        first = next_request_id()
        second = next_request_id()
        assert second == first + 1

    def test_each_request_gets_fresh_id(self):
        a, b = make_req(), make_req()
        assert a.req_id != b.req_id


class TestLatencyProperties:
    def test_total_latency(self):
        req = make_req()
        req.created_at = 100
        req.completed_at = 450
        assert req.total_latency == 350

    def test_total_latency_requires_completion(self):
        req = make_req()
        req.created_at = 100
        with pytest.raises(ValueError):
            _ = req.total_latency

    # The pacer and queue delays are read where a completed read is
    # accounted: Stats.record_completion splits its latency by stage.
    def test_pacer_delay(self):
        stats = attribute(created=10, released=35, arrived=50, issued=60)
        assert stats.stage_pacer_sum == 25

    def test_pacer_delay_requires_release(self):
        stats = attribute(created=10, arrived=50, issued=60)
        assert (stats.reads_unattributed, stats.stage_pacer_sum) == (1, 0)

    def test_queue_delay(self):
        stats = attribute(created=0, released=0, arrived=200, issued=260)
        assert stats.stage_queue_sum == 60

    def test_queue_delay_requires_issue(self):
        stats = attribute(created=0, released=0, arrived=200)
        assert (stats.reads_unattributed, stats.stage_queue_sum) == (1, 0)

    def test_fresh_request_has_no_timestamps(self):
        req = make_req()
        for field in (
            "created_at", "released_at", "arrived_mc_at",
            "dispatched_at", "issued_at", "completed_at",
        ):
            assert getattr(req, field) == -1
