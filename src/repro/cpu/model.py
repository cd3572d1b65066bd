"""Core model.

The paper models an out-of-order, non-speculative CPU whose instruction
window is bounded by structural hazards (ROB/LSQ).  This reproduction keeps
the two properties PABST's behaviour depends on:

* bounded memory-level parallelism — a core runs ``workload.contexts``
  independent dependent-chains, and outstanding L2 misses are further capped
  by the MSHR file;
* latency sensitivity — each context blocks until its access completes, so
  a low-context workload's request rate falls as memory latency grows.

The core knows nothing about caches or PABST: it asks the system to perform
an access and gets a completion callback.

The per-context completion callback is allocated once at :meth:`Core.start`
(a ``partial`` over the context id) rather than per access: a context has at
most one access outstanding, so the in-flight access lives in a per-context
slot and the callback stays reusable.  This removes a closure allocation and
a call frame from every access on the dominant L2-hit path.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.sim.engine import Engine
from repro.sim.rng import Generator
from repro.workloads.base import Access, Workload

__all__ = ["Core"]


class Core:
    """One CPU tile driving a workload through the memory system."""

    def __init__(
        self,
        engine: Engine,
        core_id: int,
        qos_id: int,
        workload: Workload,
        access_fn: "Callable[[Core, Access, Callable[[], None]], None]",
        on_instructions: Callable[[int, int], None],
        class_stats_lookup: Callable[[int], object] | None = None,
    ) -> None:
        self._engine = engine
        self.core_id = core_id
        self.qos_id = qos_id
        self.workload = workload
        self._access_fn = access_fn
        self._on_instructions = on_instructions
        # Optional fast path for instruction accounting: the system passes
        # ``Stats.class_stats`` so retirement becomes one attribute bump on
        # the cached ClassStats instead of a call per completed access.  The
        # lookup stays lazy so a never-retiring core creates no stats entry
        # (same observable behaviour as calling on_instructions each time).
        self._stats_lookup = class_stats_lookup
        self._class_stats = None
        # ``Workload.on_complete`` is a no-op hook; skip the virtual call
        # per completion unless the workload actually overrides it.
        self._wl_on_complete = (
            workload.on_complete
            if type(workload).on_complete is not Workload.on_complete
            else None
        )
        self.rng: Generator = engine.rng(f"core.{core_id}")
        workload.bind(self)

        self.accesses_issued = 0
        self.accesses_completed = 0
        self.instructions = 0
        self._live_contexts = 0
        self._started = False
        self._current: list[Access | None] = []
        self._done: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick off every context at cycle 0 (idempotent)."""
        if self._started:
            return
        self._started = True
        contexts = self.workload.contexts
        self._live_contexts = contexts
        self._current = [None] * contexts
        self._done = [partial(self._complete, context) for context in range(contexts)]
        for context in range(contexts):
            self._engine.post(0, self._advance, context)

    @property
    def now(self) -> int:
        return self._engine.now

    @property
    def done(self) -> bool:
        """True once every context has retired."""
        return self._started and self._live_contexts == 0

    # ------------------------------------------------------------------
    # context state machine
    # ------------------------------------------------------------------
    def _advance(self, context: int) -> None:
        access = self.workload.next_access(context)
        if access is None:
            self._live_contexts -= 1
            return
        self._current[context] = access
        gap = access.gap
        if gap > 0:
            self._engine.post(gap, self._issue, context, access)
        else:
            self.accesses_issued += 1
            self._access_fn(self, access, self._done[context])

    def _issue(self, context: int, access: Access) -> None:
        self.accesses_issued += 1
        self._access_fn(self, access, self._done[context])

    def _complete(self, context: int) -> None:
        access = self._current[context]
        self.accesses_completed += 1
        count = access.instructions
        if count:
            self.instructions += count
            stats = self._class_stats
            if stats is not None:
                stats.instructions += count
            else:
                lookup = self._stats_lookup
                if lookup is not None:
                    stats = lookup(self.qos_id)
                    self._class_stats = stats
                    stats.instructions += count
                else:
                    self._on_instructions(self.qos_id, count)
        wl_on_complete = self._wl_on_complete
        if wl_on_complete is not None:
            wl_on_complete(context, access, self._engine._now)
        self._advance(context)
