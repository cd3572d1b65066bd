"""Saturation monitor (paper Section III-C1).

Each memory controller integrates its front-end read-queue occupancy over
the epoch; if the average exceeds half the queue capacity the controller
raises SAT.  The per-controller signals are combined with a wired-OR and
broadcast to every governor at the epoch boundary.  The paper notes this
global OR assumes a uniform address hash (which our
:class:`~repro.sim.topology.AddressMap` provides); per-controller governors
are the alternative it sketches.
"""

from __future__ import annotations

from typing import Sequence

from repro.dram.controller import MemoryController

__all__ = ["SaturationMonitor"]


class SaturationMonitor:
    """Wired-OR of per-controller queue-occupancy threshold checks."""

    def __init__(self, controllers: Sequence[MemoryController]) -> None:
        if not controllers:
            raise ValueError("need at least one memory controller")
        self._controllers = list(controllers)
        self.last_occupancies: list[float] = [0.0] * len(self._controllers)
        self.last_signals: list[bool] = [False] * len(self._controllers)
        self.last_signal = False

    def sample(self) -> bool:
        """Close the epoch window on every controller and OR the signals.

        The per-controller signals are kept in :attr:`last_signals` for the
        per-controller-governor alternative (Section III-C1); the wired-OR
        value is what the paper's baseline design broadcasts.
        """
        saturated = False
        for index, controller in enumerate(self._controllers):
            occupancy = controller.sample_read_occupancy()
            self.last_occupancies[index] = occupancy
            signal = occupancy > 0.5 * controller.read_queue_capacity
            self.last_signals[index] = signal
            saturated = saturated or signal
        self.last_signal = saturated
        return saturated
