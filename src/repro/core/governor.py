"""PABST governor: system monitor state machine (Fig. 4, Tables I-II).

Every L2 cache has a governor.  All governors run this algorithm in
lockstep from the same two inputs — the epoch heartbeat and the wired-OR
SAT signal — so, without any communication, they compute identical
multipliers ``M`` and therefore request rates in exactly the configured
proportions (Eq. 5; ``tests/core/test_governor.py`` asserts the lockstep
property directly).

State (Table I):

* ``M``   — throttling multiplier; scales every class's request period, so
            raising M lowers every rate while preserving the ratios.
* ``dM``  — magnitude of the next change in M.
* ``E``   — consecutive epochs without a direction flip.
* phase   — the current direction of the goal rate and of ``dM``.

Transitions (reconstructed from the Section III-B1 prose; the paper's
Table II is corrupt in the available text — see DESIGN.md §3):

* SAT high -> M rises (less traffic); SAT low -> M falls (more traffic).
* A direction flip shrinks ``dM`` exponentially (``dM >>= 2``, floor 1)
  and resets ``E`` — noisy SAT means the system hovers near the ideal
  rate, so steps should be small.
* After ``inertia`` consecutive same-direction epochs ``dM`` doubles each
  epoch (cap ``DM_MAX``) — steady SAT means demand moved, so converge fast.

Everything is shifts and adds on small integers, as required.
"""

from __future__ import annotations

from repro.core.config import PabstConfig
from repro.core.pacer import Pacer
from repro.qos.classes import QoSRegistry

__all__ = ["Governor", "SystemMonitor"]

#: Power-on state: no throttling, unit steps.
M_INIT = 0
DM_INIT = 1
#: Caps keeping the governor state in small (12-bit-ish) integers.
M_MAX = 1 << 13
DM_MAX = 512


class SystemMonitor:
    """The M / delta-M / E state machine shared (by construction) by all governors."""

    def __init__(self, config: PabstConfig) -> None:
        self._config = config
        self.m = M_INIT
        self.dm = DM_INIT
        self.e = 0
        self.rate_direction_up = True  # "up" = driving more traffic (M falling)
        self.epochs = 0  # heartbeats observed (obs counter)
        self.direction_flips = 0  # SAT direction reversals (obs counter)

    @property
    def phase(self) -> str:
        """Human-readable phase label in the spirit of Table II."""
        rate = "rate-up" if self.rate_direction_up else "rate-down"
        dm = "dm-up" if self.e >= self._config.inertia else "dm-down"
        return f"{rate}/{dm}"

    def on_epoch(self, saturated: bool) -> int:
        """Advance one epoch; returns the new multiplier M."""
        config = self._config
        self.epochs += 1
        direction_up = not saturated
        if direction_up == self.rate_direction_up:
            self.e += 1
            if self.e >= config.inertia:
                self.dm = min(self.dm << 1, DM_MAX)
        else:
            self.e = 0
            self.dm = max(1, self.dm >> 2)
            self.rate_direction_up = direction_up
            self.direction_flips += 1
        if saturated:
            self.m = min(self.m + self.dm, M_MAX)
        else:
            self.m = max(self.m - self.dm, 0)
        return self.m


class Governor:
    """Per-source governor: system monitor plus rate generator (Eqs. 3-4).

    The rate generator turns the global multiplier into a class- and
    thread-scaled request period for this source's pacer:

        class_period_c  = (M x stride_c) / F                       (Eq. 3)
        source_period_c = class_period_c x threads_c               (Eq. 4)

    Periods are kept as exact rationals (numerator over F) so the pacer
    never accumulates rounding drift; F is the fractional-rate constant.
    """

    def __init__(
        self,
        core_id: int,
        qos_id: int,
        registry: QoSRegistry,
        config: PabstConfig,
        pacer: Pacer,
    ) -> None:
        self.core_id = core_id
        self.qos_id = qos_id
        self._registry = registry
        self._config = config
        self.monitor = SystemMonitor(config)
        self.pacer = pacer

    @property
    def multiplier(self) -> int:
        return self.monitor.m

    def source_period_numerator(self) -> int:
        """Numerator of Eq. 4 (denominator is the pacer's F)."""
        stride = self._registry.stride(self.qos_id)
        threads = max(1, self._registry.threads_in_class(self.qos_id))
        return self.monitor.m * stride * threads

    def on_epoch(self, saturated: bool) -> None:
        """Heartbeat: update M and push the new period to the pacer."""
        self.monitor.on_epoch(saturated)
        self.pacer.set_period(self.source_period_numerator())
