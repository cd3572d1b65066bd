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

from repro.sim.engine import _WHEEL_MASK, _WHEEL_SIZE, Event, SimulationError
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
    # checkpoint-restore validation
    # ------------------------------------------------------------------
    def on_restore(self, system) -> None:
        """Validate a system resurrected from a checkpoint.

        Called by :func:`repro.runner.checkpoint.restore_system` on the
        freshly unpickled object graph, before any measurement cycle
        runs.  The per-hop hooks above catch violations as they happen;
        this pass instead audits the *at-rest* state a snapshot claims
        to be in, so a corrupt, truncated, or version-skewed checkpoint
        fails here with a structural diagnosis instead of replaying into
        a silently wrong figure.

        Checks, in order:

        * wheel-window geometry: ``horizon == wheel_pos + wheel size``
          and the clock standing inside the window;
        * bucket accounting: ``_wheel_count`` equals the entries
          actually sitting in buckets;
        * live-event conservation: the live counter equals the
          uncancelled entries across wheel and overflow (a fired-but-
          queued or double-counted entry breaks replay ordering);
        * per-entry placement: every cancellable event sits in the
          bucket its timestamp maps to, inside the window, in the
          future, with a sequence number the engine has already minted
          (same for overflow heap entries, which must also respect the
          heap order the refill pop relies on);
        * request sanity: every queued in-flight request has monotone
          lifecycle stamps, none stamped beyond the restored clock, and
          a non-negative virtual deadline;
        * if a sanitizer was snapshotted with the system, its own
          carried state still satisfies conservation and clock bounds.
        """
        engine = system.engine
        now = engine._now
        wheel_pos = engine._wheel_pos
        horizon = engine._horizon
        if horizon != wheel_pos + _WHEEL_SIZE:
            self._fail(
                f"restored wheel window is torn: horizon={horizon} != "
                f"wheel_pos={wheel_pos} + {_WHEEL_SIZE}"
            )
        if not now <= wheel_pos <= now + 1:
            self._fail(
                f"restored clock outside its wheel window: now={now}, "
                f"wheel_pos={wheel_pos}"
            )
        # _wheel_count spans both phases: the main wheel and the late
        # wheel (whose entries are all fire-and-forget tuples)
        bucket_entries = sum(len(bucket) for bucket in engine._wheel)
        bucket_entries += sum(len(bucket) for bucket in engine._wheel_late)
        if bucket_entries != engine._wheel_count:
            self._fail(
                f"restored wheel count is stale: _wheel_count="
                f"{engine._wheel_count} but buckets hold {bucket_entries}"
            )
        live = 0
        seq_ceiling = engine._seq
        for index, bucket in enumerate(engine._wheel):
            for entry in bucket:
                if type(entry) in (tuple, list):
                    live += 1
                    continue
                self._check_restored_event(
                    entry, index, now, wheel_pos, horizon, seq_ceiling
                )
                if not entry.cancelled:
                    live += 1
        # late-phase entries are uncancellable fire-and-forget tuples
        live += sum(len(bucket) for bucket in engine._wheel_late)
        overflow = engine._overflow
        for heap_index, (when, seq, entry) in enumerate(overflow):
            if when < wheel_pos:
                self._fail(
                    f"restored overflow entry at cycle {when} is behind the "
                    f"wheel window start {wheel_pos}"
                )
            if seq >= seq_ceiling:
                self._fail(
                    f"restored overflow entry carries unminted seq {seq} "
                    f"(engine seq counter is {seq_ceiling})"
                )
            parent = (heap_index - 1) >> 1
            if heap_index and overflow[parent][:2] > (when, seq):
                self._fail(
                    f"restored overflow heap order violated at index "
                    f"{heap_index}: parent {overflow[parent][:2]} > "
                    f"child {(when, seq)}"
                )
            if isinstance(entry, Event):
                if entry.seq >= seq_ceiling:
                    self._fail(
                        f"restored overflow event carries unminted seq "
                        f"{entry.seq} (engine seq counter is {seq_ceiling})"
                    )
                if not entry.cancelled:
                    live += 1
            else:
                live += 1
        if live != engine._live:
            self._fail(
                f"restored live-event counter out of sync: engine says "
                f"{engine._live}, queues hold {live} live entries"
            )
        for req in self._iter_queued_requests(system):
            self._check_restored_request(req, now)
        snapshotted = engine.sanitizer
        if snapshotted is not None and snapshotted is not self:
            if snapshotted._last_event_when > now:
                self._fail(
                    "restored sanitizer saw an event at "
                    f"{snapshotted._last_event_when}, after the restored "
                    f"clock {now}"
                )
            if snapshotted.injected != (
                snapshotted.completed + len(snapshotted._inflight)
            ):
                self._fail(
                    "restored sanitizer violates conservation: injected="
                    f"{snapshotted.injected} != completed="
                    f"{snapshotted.completed} + in_flight="
                    f"{len(snapshotted._inflight)}"
                )
        self.checks += 1

    def _check_restored_event(
        self,
        event,
        bucket_index: int,
        now: int,
        wheel_pos: int,
        horizon: int,
        seq_ceiling: int,
    ) -> None:
        self.checks += 1
        if event.fired:
            self._fail(
                f"restored wheel holds an already-fired event for cycle "
                f"{event.when}"
            )
        if not wheel_pos <= event.when < horizon:
            self._fail(
                f"restored event at cycle {event.when} lies outside the "
                f"wheel window [{wheel_pos}, {horizon})"
            )
        if event.when < now:
            self._fail(
                f"restored event at cycle {event.when} is in the past "
                f"(clock is at {now})"
            )
        if (event.when & _WHEEL_MASK) != bucket_index:
            self._fail(
                f"restored event at cycle {event.when} sits in bucket "
                f"{bucket_index} instead of {event.when & _WHEEL_MASK}"
            )
        if event.seq >= seq_ceiling:
            self._fail(
                f"restored event carries unminted seq {event.seq} "
                f"(engine seq counter is {seq_ceiling})"
            )

    @staticmethod
    def _iter_queued_requests(system):
        for per_core in system._mc_pending_reads:
            for queue in per_core.values():
                yield from queue
        for queue in system._mc_pending_writes:
            yield from queue

    def _check_restored_request(self, req: MemoryRequest, now: int) -> None:
        self.checks += 1
        problem = req.lifecycle_violation()
        if problem is not None:
            self._fail(f"restored request: {problem}: {req.hop_trace()}")
        latest = max((stamp for _, stamp in req.lifecycle()), default=-1)
        if latest > now:
            self._fail(
                f"restored request stamped at {latest}, after the restored "
                f"clock {now}: {req.hop_trace()}"
            )
        if req.completed_at >= 0:
            self._fail(
                f"restored request already completed but still queued: "
                f"{req.hop_trace()}"
            )
        if req.virtual_deadline < 0:
            self._fail(
                f"restored request carries negative virtual deadline "
                f"{req.virtual_deadline}: {req.hop_trace()}"
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
