"""Per-class bandwidth monitor (paper Section II-B).

Commercial QoS frameworks (e.g. Intel RDT) expose per-class memory bandwidth
counters that schedulers use when placing workloads.  The monitor provides
the same queries on top of the simulator's statistics.
"""

from __future__ import annotations

from repro.sim.stats import Stats

__all__ = ["BandwidthMonitor"]


class BandwidthMonitor:
    """Memory-bandwidth monitoring, analogous to Intel MBM.

    Bandwidth is reported in bytes per cycle, optionally normalized to a
    configured peak so results read as "% of peak" like the paper's figures.
    """

    def __init__(self, stats: Stats, peak_bytes_per_cycle: float | None = None) -> None:
        if peak_bytes_per_cycle is not None and peak_bytes_per_cycle <= 0:
            raise ValueError("peak_bytes_per_cycle must be positive")
        self._stats = stats
        self._peak = peak_bytes_per_cycle

    def bandwidth(self, qos_id: int, window_epochs: int | None = None) -> float:
        """Average bytes/cycle for a class over the last ``window_epochs``.

        ``None`` averages over the whole run so far.
        """
        epochs = self._stats.epochs
        if not epochs:
            return 0.0
        if window_epochs is not None:
            if window_epochs <= 0:
                raise ValueError("window_epochs must be positive")
            epochs = epochs[-window_epochs:]
        total_bytes = sum(sample.bytes_by_class.get(qos_id, 0) for sample in epochs)
        total_cycles = sum(sample.cycles for sample in epochs)
        if total_cycles <= 0:
            return 0.0
        return total_bytes / total_cycles

    def utilization(self, qos_id: int, window_epochs: int | None = None) -> float:
        """Bandwidth as a fraction of configured peak."""
        if self._peak is None:
            raise ValueError("monitor was created without a peak bandwidth")
        return self.bandwidth(qos_id, window_epochs) / self._peak

    def share(self, qos_id: int, window_epochs: int | None = None) -> float:
        """Fraction of observed traffic belonging to ``qos_id``."""
        epochs = self._stats.epochs
        if window_epochs is not None:
            epochs = epochs[-window_epochs:]
        total = 0
        mine = 0
        for sample in epochs:
            for cls, nbytes in sample.bytes_by_class.items():
                total += nbytes
                if cls == qos_id:
                    mine += nbytes
        if total == 0:
            return 0.0
        return mine / total

