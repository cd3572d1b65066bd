"""Interface between the simulated machine and a bandwidth-QoS mechanism.

A :class:`QoSMechanism` is the pluggable "hardware" under evaluation:
PABST, its source-only and target-only ablations, one of the rival
mechanisms in :mod:`repro.mechanisms`, or nothing at all.  The
:class:`~repro.sim.system.System` calls these hooks:

* ``prepare_config``     — once, before anything is built from the config
                           (machine-level mechanisms, e.g. the static
                           bandwidth partition, rewrite it here);
* ``attach``             — once, after the machine is built;
* ``mc_policy``          — scheduling policy for each memory controller;
* ``request_release``    — an L2 miss wants to enter the NoC (pacer point);
* ``on_response``        — a response reached the source (L3-hit undo and
                           demand writeback charging, Section V-C);
* ``on_epoch``           — the epoch heartbeat with the wired-OR SAT value.

The base class implements the do-nothing mechanism, which doubles as the
no-QoS baseline.

Every mechanism also reports a uniform ``mechanism.*`` counter namespace
on the obs registry (epochs seen, releases granted/denied, writeback
charges).  The epoch and release counters are maintained by the
base-class hooks, so a subclass that overrides a hook must either call
``super()`` or account for the event itself — otherwise its arena columns
read zero.  PABST derives the release and writeback counters from its
pacers instead (see
:meth:`repro.core.pabst.PabstMechanism.obs_releases_granted`); only a
pacer charges writebacks, so the base reports none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.records import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    # typing only: a runtime import would add the edge sim.mechanism ->
    # dram.schedulers -> repro.sim, a cycle whenever repro.sim re-exports
    # sim.mechanism eagerly and repro.core or repro.dram loads first
    from repro.dram.schedulers import SchedulingPolicy
    from repro.qos.classes import QoSRegistry
    from repro.sim.config import SystemConfig
    from repro.sim.system import System

__all__ = ["QoSMechanism"]


class QoSMechanism:
    """Default mechanism: unregulated baseline (plain FR-FCFS, no pacing)."""

    name = "none"

    # Uniform counter state, as class-level defaults: subclasses need no
    # ``super().__init__()`` call, and the first ``+= 1`` creates the
    # instance attribute.
    _obs_epochs = 0
    _obs_granted = 0
    _obs_denied = 0

    def prepare_config(
        self, config: "SystemConfig", registry: "QoSRegistry"
    ) -> "SystemConfig":
        """Rewrite the machine configuration before the system is built.

        Called once by :class:`~repro.sim.system.System` before any
        component exists.  Most mechanisms return ``config`` unchanged;
        machine-level ones (the static bandwidth partition emulated via
        DRAM frequency scaling) return a replacement.
        """
        return config

    def attach(self, system: "System") -> None:
        """Wire the mechanism to a freshly built system."""

    def mc_policy(self, mc_id: int) -> SchedulingPolicy | None:
        """Scheduling policy for memory controller ``mc_id`` (None = default)."""
        return None

    def request_release(
        self, core_id: int, req: MemoryRequest, release: Callable[[], None]
    ) -> None:
        """An L2 miss asks to enter the NoC; call ``release`` to let it go."""
        self._obs_granted += 1
        release()

    def on_response(self, core_id: int, req: MemoryRequest) -> None:
        """A response arrived back at its source tile."""

    def on_epoch(
        self, saturated: bool, per_mc: tuple[bool, ...] | None = None
    ) -> None:
        """Epoch heartbeat.

        ``saturated`` is the global wired-OR SAT value the paper's design
        broadcasts; ``per_mc`` carries the individual controller signals
        for mechanisms implementing the per-controller alternative of
        Section III-C1.  Subclasses must call ``super().on_epoch(...)``
        so the uniform ``mechanism.epochs`` counter stays honest.
        """
        self._obs_epochs += 1

    def multiplier(self) -> int:
        """Current governor multiplier M, or -1 when not applicable."""
        return -1

    # ------------------------------------------------------------------
    # uniform observability
    # ------------------------------------------------------------------
    @property
    def obs_epochs(self) -> int:
        """Epoch heartbeats this mechanism has seen."""
        return self._obs_epochs

    @property
    def obs_releases_granted(self) -> int:
        """Requests released onto the NoC (immediately or after a stall)."""
        return self._obs_granted

    @property
    def obs_releases_denied(self) -> int:
        """Release requests deferred at least once before being granted."""
        return self._obs_denied

    @property
    def obs_writeback_charges(self) -> int:
        """Writebacks charged against a class's allocation."""
        return 0

    def bound_report(self) -> dict | None:
        """Worst-case guarantee check, for WCET-style mechanisms.

        ``None`` means the mechanism offers no worst-case bound.  WCET
        mechanisms (the DPQ arbiter, the per-bank regulator) return a
        dict with at least ``bound``, ``max_observed``, ``violations``,
        and ``ok`` keys; the arena report prints the verdict.
        """
        return None

    def register_obs(self, registry) -> None:
        """Register mechanism counters/gauges on the system's obs registry.

        Called once by :class:`~repro.sim.system.System` right after
        :meth:`attach`.  The base registers the uniform ``mechanism.*``
        namespace every mechanism reports; mechanisms with internal
        state (pacers, governors, arbiters) extend it — see
        :meth:`repro.core.pabst.PabstMechanism.register_obs` — and must
        call ``super().register_obs(registry)``.
        """
        registry.register_counter("mechanism.epochs", self, "obs_epochs")
        registry.register_counter(
            "mechanism.releases_granted", self, "obs_releases_granted"
        )
        registry.register_counter(
            "mechanism.releases_denied", self, "obs_releases_denied"
        )
        registry.register_counter(
            "mechanism.writeback_charges", self, "obs_writeback_charges"
        )
