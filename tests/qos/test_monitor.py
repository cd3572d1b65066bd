"""Unit tests for the bandwidth/occupancy monitors."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.qos.monitor import BandwidthMonitor, OccupancyMonitor
from repro.sim.stats import Stats


def stats_with_epochs():
    stats = Stats()
    from repro.sim.records import AccessType, MemoryRequest

    def complete(qos_id, count):
        for _ in range(count):
            req = MemoryRequest(addr=0, access=AccessType.READ, qos_id=qos_id, core_id=0)
            req.created_at = 0
            req.completed_at = 10
            stats.record_completion(req)

    complete(0, 3)
    complete(1, 1)
    stats.close_epoch(now=64)
    complete(0, 1)
    complete(1, 3)
    stats.close_epoch(now=128)
    return stats


class TestBandwidthMonitor:
    def test_bandwidth_over_whole_run(self):
        monitor = BandwidthMonitor(stats_with_epochs())
        # class 0: 4 lines x 64B over 128 cycles
        assert monitor.bandwidth(0) == pytest.approx(2.0)

    def test_bandwidth_over_window(self):
        monitor = BandwidthMonitor(stats_with_epochs())
        assert monitor.bandwidth(0, window_epochs=1) == pytest.approx(1.0)
        assert monitor.bandwidth(1, window_epochs=1) == pytest.approx(3.0)

    def test_share(self):
        monitor = BandwidthMonitor(stats_with_epochs())
        assert monitor.share(0) == pytest.approx(0.5)
        assert monitor.share(0, window_epochs=1) == pytest.approx(0.25)

    def test_utilization_requires_peak(self):
        monitor = BandwidthMonitor(stats_with_epochs(), peak_bytes_per_cycle=16.0)
        assert monitor.utilization(0) == pytest.approx(2.0 / 16.0)
        with pytest.raises(ValueError):
            BandwidthMonitor(stats_with_epochs()).utilization(0)

    def test_no_epochs_is_zero(self):
        assert BandwidthMonitor(Stats()).bandwidth(0) == 0.0

    def test_window_validation(self):
        monitor = BandwidthMonitor(stats_with_epochs())
        with pytest.raises(ValueError):
            monitor.bandwidth(0, window_epochs=0)

    def test_peak_validation(self):
        with pytest.raises(ValueError):
            BandwidthMonitor(Stats(), peak_bytes_per_cycle=0)


class TestOccupancyMonitor:
    def test_counts_lines_across_caches(self):
        caches = [
            SetAssociativeCache(f"c{i}", num_sets=4, assoc=2) for i in range(2)
        ]
        caches[0].fill(0x000, qos_id=0)
        caches[0].fill(0x040, qos_id=1)
        caches[1].fill(0x080, qos_id=0)
        monitor = OccupancyMonitor(caches)
        assert monitor.occupancy_lines(0) == 2
        assert monitor.occupancy_lines(1) == 1
        assert monitor.occupancy_bytes(0) == 128

    def test_unknown_class_is_zero(self):
        monitor = OccupancyMonitor([])
        assert monitor.occupancy_lines(7) == 0
