"""Unit tests for statistics collection."""

import pytest

from repro.obs.streams import MemorySink
from repro.sim.records import AccessType, MemoryRequest
from repro.sim.stats import Stats


def completed_req(qos_id=0, access=AccessType.READ, size=64, created=0, done=100):
    req = MemoryRequest(addr=0x40, access=access, qos_id=qos_id, core_id=0, size=size)
    req.created_at = created
    req.completed_at = done
    return req


class TestCompletionAccounting:
    def test_read_bytes_accrue_to_class(self):
        stats = Stats()
        stats.record_completion(completed_req(qos_id=3))
        assert stats.class_stats(3).bytes_read == 64
        assert stats.class_stats(3).bytes_written == 0
        assert stats.class_stats(3).reads_completed == 1

    def test_write_and_writeback_bytes_count_as_written(self):
        stats = Stats()
        stats.record_completion(completed_req(access=AccessType.WRITE))
        stats.record_completion(completed_req(access=AccessType.WRITEBACK))
        assert stats.class_stats(0).bytes_written == 128
        assert stats.class_stats(0).writes_completed == 2

    def test_read_latency_tracked(self):
        stats = Stats()
        stats.record_completion(completed_req(created=10, done=110))
        stats.record_completion(completed_req(created=10, done=310))
        cls = stats.class_stats(0)
        assert cls.mean_read_latency == 200.0
        assert cls.read_latency_max == 300

    def test_latency_samples_only_when_enabled(self):
        silent = Stats(sample_latencies=False)
        silent.record_completion(completed_req())
        assert silent.read_latencies == {}
        sampling = Stats(sample_latencies=True)
        sampling.record_completion(completed_req(created=0, done=42))
        assert list(sampling.read_latencies[0]) == [42]

    def test_mean_latency_empty_class_is_zero(self):
        assert Stats().class_stats(9).mean_read_latency == 0.0


class TestEpochs:
    def test_epoch_snapshot_captures_and_resets(self):
        stats = Stats()
        stats.record_completion(completed_req(qos_id=0))
        stats.record_completion(completed_req(qos_id=1))
        stats.record_completion(completed_req(qos_id=1))
        sample = stats.close_epoch(now=1000)
        assert sample.bytes_by_class == {0: 64, 1: 128}
        assert sample.cycles == 1000
        empty = stats.close_epoch(now=2000)
        assert empty.bytes_by_class == {}
        assert empty.start_cycle == 1000

    def test_epoch_bandwidth(self):
        stats = Stats()
        stats.record_completion(completed_req(qos_id=0))
        sample = stats.close_epoch(now=32)
        assert sample.bandwidth(0) == 2.0
        assert sample.bandwidth(1) == 0.0

    def test_epoch_metadata(self):
        stats = Stats()
        sample = stats.close_epoch(now=10, saturated=True, multiplier=17)
        assert sample.saturated and sample.multiplier == 17
        assert sample.epoch == 0


class TestSummaries:
    def test_bandwidth_share(self):
        stats = Stats()
        for _ in range(3):
            stats.record_completion(completed_req(qos_id=0))
        stats.record_completion(completed_req(qos_id=1))
        assert stats.bandwidth_share(0) == 0.75
        assert stats.bandwidth_share(1) == 0.25

    def test_bandwidth_share_empty_is_zero(self):
        assert Stats().bandwidth_share(0) == 0.0

    def test_total_bytes_all_classes(self):
        stats = Stats()
        stats.record_completion(completed_req(qos_id=0))
        stats.record_completion(completed_req(qos_id=5))
        assert stats.total_bytes() == 128
        assert stats.total_bytes(5) == 64

    def test_memory_efficiency(self):
        stats = Stats()
        stats.bus_busy_cycles = 80
        stats.mc_active_cycles = 100
        assert stats.memory_efficiency() == 0.8

    def test_memory_efficiency_not_clamped(self):
        # the old min(1.0, ...) clamp hid double-counted bus reservations;
        # an impossible ratio must now be visible (the sanitizer flags it)
        stats = Stats()
        assert stats.memory_efficiency() == 0.0
        stats.bus_busy_cycles = 120
        stats.mc_active_cycles = 100
        assert stats.memory_efficiency() == pytest.approx(1.2)

    def test_instruction_accounting_and_ipc(self):
        stats = Stats()
        stats.record_instructions(2, 500)
        stats.record_instructions(2, 500)
        assert stats.ipc(2, cycles=2000) == 0.5
        assert stats.ipc(2, cycles=0) == 0.0


def fully_stamped_req(qos_id=0):
    req = completed_req(qos_id=qos_id, created=0, done=100)
    req.released_at = 10
    req.arrived_mc_at = 30
    req.issued_at = 60
    return req


class TestStageAttribution:
    def test_full_stamps_attribute_every_stage(self):
        stats = Stats()
        stats.record_completion(fully_stamped_req())
        cls = stats.class_stats(0)
        assert cls.reads_attributed == 1
        assert cls.reads_unattributed == 0
        assert cls.stage_pacer_sum == 10
        assert cls.stage_noc_sum == 20
        assert cls.stage_queue_sum == 30
        assert cls.stage_service_sum == 40

    @pytest.mark.parametrize("missing", ["released_at", "arrived_mc_at", "issued_at"])
    def test_partial_stamps_count_as_unattributed(self, missing):
        # the old code silently skipped these reads; now they are counted
        # so reads_attributed + reads_unattributed == reads_completed
        stats = Stats()
        req = fully_stamped_req()
        setattr(req, missing, -1)
        stats.record_completion(req)
        cls = stats.class_stats(0)
        assert cls.reads_completed == 1
        assert cls.reads_attributed == 0
        assert cls.reads_unattributed == 1
        assert cls.stage_pacer_sum == 0

    def test_unattributed_reads_still_count_latency(self):
        stats = Stats()
        req = fully_stamped_req()
        req.issued_at = -1
        stats.record_completion(req)
        assert stats.class_stats(0).read_latency_sum == 100


class TestEpochSinks:
    def test_close_epoch_publishes_to_every_sink(self):
        stats = Stats()
        first, second = MemorySink(), MemorySink()
        stats.add_sink(first)
        stats.add_sink(second)
        stats.record_completion(completed_req(qos_id=1))
        stats.close_epoch(now=32, saturated=True, multiplier=5)
        assert len(first) == len(second) == 1
        record = first.samples[0]
        assert record["bytes_by_class"] == {1: 64}
        assert record["bandwidth_by_class"] == {1: 2.0}
        assert record["saturated"] is True
        assert record["multiplier"] == 5

    def test_no_sinks_publishes_nothing(self):
        stats = Stats()
        stats.close_epoch(now=10)
        assert stats.sinks == ()

    def test_zero_length_final_epoch_has_zero_bandwidth(self):
        # a run ending exactly on an epoch boundary produces a final
        # EpochSample with cycles == 0; no division by zero anywhere
        stats = Stats()
        stats.close_epoch(now=100)
        sink = MemorySink()
        stats.add_sink(sink)
        stats.record_completion(completed_req())
        sample = stats.close_epoch(now=100)
        assert sample.cycles == 0
        assert sample.bandwidth(0) == 0.0
        assert sink.samples[0]["bandwidth_by_class"] == {0: 0.0}

    def test_multiplier_sentinel_maps_to_none(self):
        # -1 means "no QoS epoch ran"; sinks see JSON null, not a magic -1
        stats = Stats()
        sink = MemorySink()
        stats.add_sink(sink)
        stats.close_epoch(now=10)
        assert sink.samples[0]["multiplier"] is None
