"""Per-epoch bandwidth timelines (Figs. 5, 6, 8).

The paper's timeline figures plot each class's consumed bandwidth per epoch
as a fraction of peak.  :class:`BandwidthTimeline` wraps the epoch samples
collected by :class:`repro.sim.stats.Stats` with exactly those queries, plus
the steady-state window statistics EXPERIMENTS.md reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.stats import EpochSample

__all__ = ["BandwidthTimeline", "WindowSummary"]


@dataclass(frozen=True, slots=True)
class WindowSummary:
    """Share statistics for one class over a window of epochs."""

    qos_id: int
    mean_share: float
    min_share: float
    max_share: float
    mean_utilization: float


class BandwidthTimeline:
    """Query layer over a run's epoch samples."""

    def __init__(self, epochs: list[EpochSample], peak_bytes_per_cycle: float) -> None:
        if peak_bytes_per_cycle <= 0:
            raise ValueError("peak bandwidth must be positive")
        self._epochs = list(epochs)
        self._peak = peak_bytes_per_cycle

    def __len__(self) -> int:
        return len(self._epochs)

    @property
    def epochs(self) -> list[EpochSample]:
        return list(self._epochs)

    # ------------------------------------------------------------------
    # series
    # ------------------------------------------------------------------
    def utilization_series(self, qos_id: int) -> list[float]:
        """Per-epoch bandwidth of one class as a fraction of system peak."""
        return [sample.bandwidth(qos_id) / self._peak for sample in self._epochs]

    def share_series(self, qos_id: int) -> list[float]:
        """Per-epoch fraction of observed traffic belonging to the class."""
        series = []
        for sample in self._epochs:
            total = sum(sample.bytes_by_class.values())
            mine = sample.bytes_by_class.get(qos_id, 0)
            series.append(mine / total if total else 0.0)
        return series

    def total_utilization_series(self) -> list[float]:
        """Per-epoch total bandwidth as a fraction of peak."""
        return [
            sum(sample.bytes_by_class.values()) / sample.cycles / self._peak
            if sample.cycles
            else 0.0
            for sample in self._epochs
        ]

    def multiplier_series(self) -> list[int]:
        """Governor M per epoch (-1 where no governor ran)."""
        return [sample.multiplier for sample in self._epochs]

    # ------------------------------------------------------------------
    # windows
    # ------------------------------------------------------------------
    def window(self, qos_id: int, start: int, end: int | None = None) -> WindowSummary:
        """Summary of one class over epochs [start, end)."""
        epochs = self._epochs[start:end]
        if not epochs:
            raise ValueError(f"empty epoch window [{start}, {end})")
        shares = []
        utils = []
        for sample in epochs:
            total = sum(sample.bytes_by_class.values())
            mine = sample.bytes_by_class.get(qos_id, 0)
            shares.append(mine / total if total else 0.0)
            utils.append(sample.bandwidth(qos_id) / self._peak)
        return WindowSummary(
            qos_id=qos_id,
            mean_share=sum(shares) / len(shares),
            min_share=min(shares),
            max_share=max(shares),
            mean_utilization=sum(utils) / len(utils),
        )

    def steady_share(self, qos_id: int, warmup_epochs: int) -> float:
        """Aggregate share over everything after the warm-up window."""
        epochs = self._epochs[warmup_epochs:]
        total = 0
        mine = 0
        for sample in epochs:
            for cls, count in sample.bytes_by_class.items():
                total += count
                if cls == qos_id:
                    mine += count
        return mine / total if total else 0.0

    def steady_bytes(self, warmup_epochs: int) -> dict[int, int]:
        """Per-class byte totals after the warm-up window."""
        totals: dict[int, int] = {}
        for sample in self._epochs[warmup_epochs:]:
            for cls, count in sample.bytes_by_class.items():
                totals[cls] = totals.get(cls, 0) + count
        return totals
