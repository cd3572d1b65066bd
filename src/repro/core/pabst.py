"""PABST: the integrated mechanism (Section III).

``PabstMechanism`` plugs the two halves into a simulated system:

* a :class:`~repro.core.governor.Governor` + :class:`~repro.core.pacer.Pacer`
  pair behind every L2 cache (the source), and
* a :class:`~repro.core.arbiter.PriorityArbiter` in every memory controller
  (the target).

The system delivers the epoch heartbeat and the wired-OR SAT signal
(Section III-D assumes dedicated wires; simulator wiring is exactly that
behaviour), and routes release/response hooks to the right pacer.

The ablations the paper evaluates are the same object with one half
disabled — see :mod:`repro.baselines`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.arbiter import PriorityArbiter
from repro.core.config import PabstConfig
from repro.core.governor import Governor
from repro.core.pacer import Pacer
from repro.dram.schedulers import SchedulingPolicy
from repro.sim.mechanism import QoSMechanism
from repro.sim.records import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import System

__all__ = ["PabstMechanism"]


class PabstMechanism(QoSMechanism):
    """Source governor + target arbiter, individually switchable."""

    def __init__(
        self,
        config: PabstConfig | None = None,
        enable_governor: bool = True,
        enable_arbiter: bool = True,
    ) -> None:
        self.config = config if config is not None else PabstConfig()
        self.enable_governor = enable_governor
        self.enable_arbiter = enable_arbiter
        if enable_governor and enable_arbiter:
            self.name = "pabst"
        elif enable_governor:
            self.name = "source-only"
        elif enable_arbiter:
            self.name = "target-only"
        else:
            self.name = "none"
        self.governors: dict[int, Governor] = {}
        self.pacers: dict[int, Pacer] = {}
        # per-controller mode (Section III-C1 alternative): keyed (core, mc)
        self.mc_governors: dict[tuple[int, int], Governor] = {}
        self.mc_pacers: dict[tuple[int, int], Pacer] = {}
        self.arbiters: dict[int, PriorityArbiter] = {}
        self._address_map = None

    # ------------------------------------------------------------------
    # QoSMechanism interface
    # ------------------------------------------------------------------
    def attach(self, system: "System") -> None:
        registry = system.registry
        self._address_map = system.address_map
        # F of Eq. 3 is the stride scale, so class_period = M / weight
        # cycles whatever the stride fixed-point choice
        f_scale = registry.stride_scale
        if self.enable_governor and self.config.per_controller_governors:
            for core_id, core in system.cores.items():
                for mc_id in range(system.config.num_mcs):
                    pacer = Pacer(
                        system.engine,
                        f_scale,
                        burst_requests=self.config.burst_requests,
                    )
                    governor = Governor(
                        core_id=core_id,
                        qos_id=core.qos_id,
                        registry=registry,
                        config=self.config,
                        pacer=pacer,
                    )
                    pacer.set_period(governor.source_period_numerator())
                    self.mc_pacers[(core_id, mc_id)] = pacer
                    self.mc_governors[(core_id, mc_id)] = governor
        elif self.enable_governor:
            for core_id, core in system.cores.items():
                pacer = Pacer(
                    system.engine, f_scale, burst_requests=self.config.burst_requests
                )
                governor = Governor(
                    core_id=core_id,
                    qos_id=core.qos_id,
                    registry=registry,
                    config=self.config,
                    pacer=pacer,
                )
                pacer.set_period(governor.source_period_numerator())
                self.pacers[core_id] = pacer
                self.governors[core_id] = governor
        if self.enable_arbiter:
            slack = self.config.arbiter_slack_strides * registry.stride_scale
            for controller in system.controllers:
                self.arbiters[controller.mc_id] = PriorityArbiter(
                    registry, slack=slack
                )

    def mc_policy(self, mc_id: int) -> SchedulingPolicy | None:
        return self.arbiters.get(mc_id)

    def request_release(
        self, core_id: int, req: MemoryRequest, release: Callable[[], None]
    ) -> None:
        # the pacer lookup is inline, not a helper: this runs once per
        # L2 miss, where the extra call frame is measurable
        if self.mc_pacers:
            pacer = self.mc_pacers.get(
                (core_id, self._address_map.mc_of(req.addr))
            )
        else:
            pacer = self.pacers.get(core_id)
        if pacer is None:
            self._obs_granted += 1
            release()
        else:
            pacer.request(req, release)

    def on_response(self, core_id: int, req: MemoryRequest) -> None:
        # same inline lookup as request_release (once per L2-miss response)
        if self.mc_pacers:
            pacer = self.mc_pacers.get(
                (core_id, self._address_map.mc_of(req.addr))
            )
        else:
            pacer = self.pacers.get(core_id)
        if pacer is None:
            return
        if req.l3_hit:
            pacer.uncharge()
        elif req.caused_writeback:
            pacer.charge_writeback()

    def on_epoch(
        self, saturated: bool, per_mc: tuple[bool, ...] | None = None
    ) -> None:
        super().on_epoch(saturated, per_mc)
        if self.mc_governors:
            for (core_id, mc_id), governor in self.mc_governors.items():
                signal = (
                    per_mc[mc_id] if per_mc is not None and mc_id < len(per_mc)
                    else saturated
                )
                governor.on_epoch(signal)
            return
        for governor in self.governors.values():
            governor.on_epoch(saturated)

    def multiplier(self) -> int:
        for governor in self.governors.values():
            return governor.multiplier
        for governor in self.mc_governors.values():
            return governor.multiplier
        return -1

    # ------------------------------------------------------------------
    # uniform observability (mechanism.* namespace)
    # ------------------------------------------------------------------
    @property
    def obs_releases_granted(self) -> int:
        """NoC releases: pacer releases plus direct (unpaced) grants."""
        total = self._obs_granted
        for pacer in self.pacers.values():
            total += pacer.released
        for pacer in self.mc_pacers.values():
            total += pacer.released
        return total

    @property
    def obs_releases_denied(self) -> int:
        """Requests the pacers deferred at least once (token stalls)."""
        total = self._obs_denied
        for pacer in self.pacers.values():
            total += pacer.throttled
        for pacer in self.mc_pacers.values():
            total += pacer.throttled
        return total

    @property
    def obs_writeback_charges(self) -> int:
        """Writeback charges the pacers levied (demand accounting)."""
        total = 0
        for pacer in self.pacers.values():
            total += pacer.writeback_charges
        for pacer in self.mc_pacers.values():
            total += pacer.writeback_charges
        return total

    def register_obs(self, registry) -> None:
        """Expose pacer/governor/arbiter state on the obs registry.

        All providers read counters the components already maintain; the
        only naming subtlety is the per-controller mode, where pacers
        and governors are keyed ``(core, mc)`` and the metric paths gain
        an ``mc`` segment.
        """
        super().register_obs(registry)

        def pacer_obs(name: str, pacer: Pacer) -> None:
            registry.register_counter(f"{name}.released", pacer, "released")
            registry.register_counter(f"{name}.tokens_stalled", pacer, "throttled")
            registry.register_counter(f"{name}.uncharges", pacer, "uncharges")
            registry.register_counter(
                f"{name}.writeback_charges", pacer, "writeback_charges"
            )
            registry.register_gauge(f"{name}.blocked", pacer, "blocked_count")

        def governor_obs(name: str, governor: Governor) -> None:
            registry.register_gauge(f"{name}.multiplier", governor, "multiplier")
            registry.register_counter(f"{name}.epochs", governor.monitor, "epochs")
            registry.register_counter(
                f"{name}.direction_flips", governor.monitor, "direction_flips"
            )

        for core_id, pacer in sorted(self.pacers.items()):
            pacer_obs(f"pacer.c{core_id}", pacer)
        for (core_id, mc_id), pacer in sorted(self.mc_pacers.items()):
            pacer_obs(f"pacer.c{core_id}.mc{mc_id}", pacer)
        for core_id, governor in sorted(self.governors.items()):
            governor_obs(f"governor.c{core_id}", governor)
        for (core_id, mc_id), governor in sorted(self.mc_governors.items()):
            governor_obs(f"governor.c{core_id}.mc{mc_id}", governor)
        for mc_id, arbiter in sorted(self.arbiters.items()):
            registry.register_counter(
                f"arbiter.mc{mc_id}.capped_deadlines", arbiter, "capped_deadlines"
            )
            registry.register_counter(
                f"arbiter.mc{mc_id}.deadline_inversions",
                arbiter,
                "deadline_inversions",
            )
            registry.register_gauge(
                f"arbiter.mc{mc_id}.last_picked_deadline",
                arbiter,
                "last_picked_deadline",
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def multipliers_agree(self) -> bool:
        """The lockstep invariant: same inputs give the same M everywhere.

        In the global-OR design every governor agrees; in the
        per-controller design governors agree *within* each controller's
        group (each group sees its own SAT stream).
        """
        if self.mc_governors:
            by_mc: dict[int, set[int]] = {}
            for (core_id, mc_id), governor in self.mc_governors.items():
                by_mc.setdefault(mc_id, set()).add(governor.multiplier)
            return all(len(values) <= 1 for values in by_mc.values())
        values = {governor.multiplier for governor in self.governors.values()}
        return len(values) <= 1
