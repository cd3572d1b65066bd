"""Opt-in runtime invariant checker for simulation runs.

The determinism linter (:mod:`repro.devtools.lint`) catches structural
hazards statically; this sanitizer catches the dynamic ones.  When a
:class:`SimSanitizer` is attached to an :class:`~repro.sim.engine.Engine`
(``engine.sanitizer = SimSanitizer()``, or ``System(..., sanitize=True)``),
the machine verifies on every hop that:

* the event clock never moves backwards (engine dispatch loop);
* each request's lifecycle timestamps are monotone in stage order
  (``created <= released <= arrived_mc <= dispatched <= issued <=
  completed``) and no later stage is stamped before ``created``;
* per-class virtual deadlines assigned by the arbiter never regress
  (the EDF invariant the paper's latency bounds rest on);
* requests are conserved: everything injected is either completed or
  still identifiably in flight at end of run, and nothing completes
  twice or appears out of nowhere.

Violations raise :class:`~repro.sim.engine.SimulationError` carrying the
offending request's full hop trace, so the failure points at the hop that
went wrong rather than at a corrupted figure three layers later.

Fused read-return chains (``Engine.post_chain_at``, see DESIGN.md §7)
are transparent to these checks: the controller still stamps
``completed_at`` at bank-service time — the first hop of the chain —
and the core response dispatches one NoC return delay later, so the
lifecycle monotonicity and conservation invariants see exactly the
timestamps the unfused two-event path would have produced.

The sanitizer costs one dict lookup and a few comparisons per hop; it is
off by default and intended for CI integration runs and debugging.
"""

from __future__ import annotations

from repro.sim.engine import SimulationError
from repro.sim.records import MemoryRequest

__all__ = ["SimSanitizer"]


class SimSanitizer:
    """Collects and enforces run-wide invariants; attach to an Engine."""

    def __init__(self) -> None:
        self._last_event_when = 0
        self._inflight: dict[int, MemoryRequest] = {}
        # Virtual clocks live per arbiter, i.e. per controller — key the
        # monotonicity check by (mc, class), not class alone.
        self._class_deadlines: dict[tuple[int, int], int] = {}
        self.injected = 0
        self.completed = 0
        self.checks = 0
        self.violations = 0

    # ------------------------------------------------------------------
    # engine hook
    # ------------------------------------------------------------------
    def on_event(self, when: int, now: int) -> None:
        """Called by the engine before dispatching each event."""
        self.checks += 1
        if when < now or when < self._last_event_when:
            self._fail(
                f"event clock moved backwards: dispatching at {when} after "
                f"now={now} (last dispatch at {self._last_event_when})"
            )
        self._last_event_when = when

    # ------------------------------------------------------------------
    # request hooks
    # ------------------------------------------------------------------
    def on_inject(self, req: MemoryRequest) -> None:
        """A request entered the system (L2 miss or L3 writeback)."""
        self.checks += 1
        if req.req_id in self._inflight:
            self._fail(f"request injected twice: {req.hop_trace()}")
        self._check_lifecycle(req)
        self._inflight[req.req_id] = req
        self.injected += 1

    def on_accept(self, req: MemoryRequest) -> None:
        """A controller front-end accepted the request."""
        self._check_lifecycle(req)
        if req.is_read and req.virtual_deadline:
            key = (req.mc_id, req.qos_id)
            last = self._class_deadlines.get(key, 0)
            if req.virtual_deadline < last:
                self._fail(
                    f"class {req.qos_id} virtual deadline regressed at "
                    f"mc {req.mc_id}: {req.virtual_deadline} after {last} — "
                    f"{req.hop_trace()}"
                )
            self._class_deadlines[key] = req.virtual_deadline

    def on_issue(self, req: MemoryRequest) -> None:
        """A bank access began for the request."""
        self._check_lifecycle(req)

    def on_complete(self, req: MemoryRequest) -> None:
        """The request finished (DRAM data transfer or local L3 hit)."""
        self.checks += 1
        if req.req_id not in self._inflight:
            self._fail(
                "request completed that was never injected (or completed "
                f"twice): {req.hop_trace()}"
            )
        if req.completed_at < 0:
            self._fail(f"request completed without a timestamp: {req.hop_trace()}")
        self._check_lifecycle(req)
        del self._inflight[req.req_id]
        self.completed += 1

    # ------------------------------------------------------------------
    # end-of-run conservation
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    def on_run_end(self, stats=None) -> None:
        """Verify request conservation once the run is finalized.

        When the run's :class:`~repro.sim.stats.Stats` is supplied, two
        accounting invariants are checked on top of conservation:

        * ``bus_busy_cycles <= mc_active_cycles`` — the data bus cannot
          be busier than its controllers are active.  ``memory_efficiency``
          deliberately does not clamp this ratio, so a double-count
          surfaces here instead of saturating silently at 1.0;
        * per class, every completed read was either stage-attributed or
          explicitly counted unattributed (``reads_attributed +
          reads_unattributed == reads_completed``), and no read of a
          healthy run is unattributed.
        """
        self.checks += 1
        if self.injected != self.completed + len(self._inflight):
            self._fail(
                f"request conservation violated: injected={self.injected} "
                f"!= completed={self.completed} + "
                f"in_flight={len(self._inflight)}"
            )
        for req in self._inflight.values():
            self._check_lifecycle(req)
        if stats is None:
            return
        self.checks += 1
        if stats.bus_busy_cycles > stats.mc_active_cycles:
            self._fail(
                f"bus busy cycles exceed MC active cycles: "
                f"bus_busy_cycles={stats.bus_busy_cycles} > "
                f"mc_active_cycles={stats.mc_active_cycles} "
                "(double-counted bus reservation?)"
            )
        for qos_id, cls in sorted(stats.classes.items()):
            self.checks += 1
            if cls.reads_attributed + cls.reads_unattributed != cls.reads_completed:
                self._fail(
                    f"class {qos_id} read attribution does not add up: "
                    f"attributed={cls.reads_attributed} + "
                    f"unattributed={cls.reads_unattributed} != "
                    f"completed={cls.reads_completed}"
                )
            if cls.reads_unattributed:
                self._fail(
                    f"class {qos_id} completed {cls.reads_unattributed} "
                    "read(s) with partial lifecycle stamps (stage "
                    "attribution skipped) — a lifecycle-stamping bug"
                )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_lifecycle(self, req: MemoryRequest) -> None:
        self.checks += 1
        problem = req.lifecycle_violation()
        if problem is not None:
            self._fail(f"{problem}: {req.hop_trace()}")

    def _fail(self, message: str) -> None:
        self.violations += 1
        raise SimulationError(f"sanitizer: {message}")
