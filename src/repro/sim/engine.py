"""Discrete-event simulation kernel.

The engine advances an integer cycle counter and dispatches callbacks in
timestamp order.  Ties are broken by insertion order, which makes every
run bit-deterministic for a given configuration and seed.

All hardware components in this reproduction (cores, caches, memory
controllers, PABST governors) are plain Python objects that schedule callbacks
on a shared :class:`Engine`.

Scheduling core: a bucketed timing wheel
----------------------------------------

Events live in a :class:`TimingWheel`: a fixed-width window of per-cycle
FIFO buckets (``_WHEEL_SIZE`` cycles wide) plus a small overflow heap for
events beyond the window (epoch ticks, far-future pacer releases).  An
insert inside the window is one ``list.append`` — no heap compares — and
the dispatch loop walks buckets in time order, so the per-event cost is
O(1) instead of the binary heap's O(log n) tuple compares.

Ordering is exactly the old heap's ``(when, seq)`` order:

* within a bucket, FIFO append order *is* insertion order;
* the window's start only moves forward, so every overflow insert for a
  cycle ``T`` happens strictly before the window reaches ``T`` and hence
  strictly before any direct bucket insert for ``T``.  Refilling pops the
  overflow heap in ``(when, seq)`` order and appends, which interleaves
  the two populations exactly as the global sequence numbers would.

Cancellation stays lazy (dead :class:`Event` objects are skipped at
dispatch) and the engine maintains a live-event counter so introspection
reflects real work, not queue garbage.

Entry shapes
------------

Buckets hold three entry shapes, told apart by container type alone (one
pointer compare on the dominant dispatch path):

* a ``(callback, args)`` tuple — a fire-and-forget
  :meth:`TimingWheel.post` / :meth:`TimingWheel.post_at` entry (the vast
  majority of traffic);
* a ``[callback, args, link_delay, link_callback, link_args]`` list — a
  fused two-hop chain from :meth:`TimingWheel.post_chain_at`: after the
  first hop's callback returns, the engine inserts the continuation
  ``link_delay`` cycles later itself.  The continuation lands exactly
  where a ``post`` issued at the end of the first callback would, so a
  fused chain is indistinguishable, event order included, from two
  separately scheduled hops — but costs one insertion instead of two;
* an :class:`Event` — a cancellable :meth:`TimingWheel.schedule` /
  :meth:`TimingWheel.schedule_at` entry.

The overflow heap stores ``(when, seq, entry)`` tuples; ``seq`` is unique
among overflow entries, so heap comparison never falls through to the
entry itself.

Late phase
----------

Each cycle has a second, *late* bucket array (:meth:`TimingWheel.post_late_at`).
All ordinary entries for cycle ``T`` dispatch first; then every late
entry for ``T`` dispatches, in FIFO order.  The late phase exists for
insertion-order canonicalization: producers whose *arrival order* at a
component is scheduling-history dependent (NoC deliveries racing space
notifications, read returns racing L3 hits) buffer their payloads and
arm one late callback, which drains the buffer in a canonical sorted
order.  The observable schedule then depends only on the buffered keys,
never on which producer happened to post first, so it stays independent
of event-insertion history: a change that reorders unrelated posts (a
new fast path, the other backend) cannot move it.
"""

from __future__ import annotations

import heapq
import operator
from typing import TYPE_CHECKING, Any, Callable

from repro._sha256 import sha256
from repro.sim.rng import Generator, SeedSequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RequestTracer
    from repro.sim.sanitizer import SimSanitizer

__all__ = ["Engine", "Event", "SimulationError", "TimingWheel", "dispatched_total"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


#: Process-wide count of events dispatched by every engine (sweep events/s).
_dispatched_total = 0


def dispatched_total() -> int:
    """Events dispatched by all engines in this process since import.

    Sums this module's counter (pure-Python dispatch loops) and the
    compiled backend's (:mod:`repro.accel`, when its extension is
    loaded).  The extension counter is tracked by *loaded*, not active:
    events dispatched under ``c`` keep counting after a switch back to
    ``pure``.
    """
    from repro import accel

    return _dispatched_total + accel.core_dispatched_total()


#: Wheel window width in cycles.  Must be a power of two.  4096 covers
#: every fixed hardware latency in the model (NoC routes, bank timings,
#: typical pacer periods); only epoch ticks and heavily throttled pacer
#: releases overflow.
_WHEEL_BITS = 12
_WHEEL_SIZE = 1 << _WHEEL_BITS
_WHEEL_MASK = _WHEEL_SIZE - 1

#: Sentinel for "no overflow refill pending" (compares greater than any
#: reachable cycle count).
_NEVER = 1 << 63


class Event:
    """A scheduled callback.

    ``cancel()`` marks the event dead; the engine silently discards dead
    events when their bucket is dispatched (lazy deletion) and keeps its
    live-event counter in sync.
    """

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "fired", "_engine")

    def __init__(
        self,
        when: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        engine: "TimingWheel",
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent.

        Cancelling an event that already fired is a no-op (its live-count
        bookkeeping was settled by the dispatch loop).
        """
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self._engine._live -= 1


class TimingWheel:
    """Bucketed timing-wheel scheduler behind the classic engine API.

    State invariants (held whenever no dispatch loop is mid-bucket):

    * every wheel entry's timestamp lies in ``[_wheel_pos, _horizon)``
      with ``_horizon == _wheel_pos + _WHEEL_SIZE``, so distinct
      timestamps in the window map to distinct buckets and every bucket
      is single-timestamp;
    * ``_wheel_pos`` (and hence ``_horizon``) is non-decreasing — the
      property the FIFO-vs-overflow ordering proof rests on — and moves
      only through :meth:`_slide`, which refills before anything else
      can insert;
    * between runs ``_wheel_pos == _now``, so a post at or after the
      clock lands in the window or the overflow heap, never a wheel
      turn ahead;
    * ``_wheel_count + len(_overflow)`` equals the queued entry count
      (cancelled events included until their bucket is dispatched),
      counting both the ordinary and the late bucket arrays.
    """

    def __init__(self) -> None:
        # Hot-path components (controller, pacer) read _now directly to
        # skip the property descriptor; treat it as read-only outside Engine.
        self._now = 0
        self._seq = 0
        self._wheel: list[list] = [[] for _ in range(_WHEEL_SIZE)]
        self._wheel_late: list[list] = [[] for _ in range(_WHEEL_SIZE)]
        self._wheel_pos = 0
        self._horizon = _WHEEL_SIZE
        self._wheel_count = 0
        self._overflow: list[tuple] = []
        self._live = 0
        self.dispatched = 0
        #: Opt-in runtime invariant checker (see ``repro.sim.sanitizer``).
        self.sanitizer: "SimSanitizer | None" = None
        #: Opt-in request lifecycle recorder (see ``repro.obs.trace``).
        #: Hook sites test ``is None`` and nothing else, so a run without
        #: a tracer executes the same bytecode paths as before the slot
        #: existed.
        self.tracer: "RequestTracer | None" = None
        #: Native fast-path counters, mirroring the C backend's member
        #: names so obs providers read either backend uniformly.  The
        #: pure dispatch loops never touch them (there is no native path
        #: to hit or miss); both stay 0 here.
        self.fastpath_hits = 0
        self.fastpath_misses = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return self._wheel_count + len(self._overflow)

    @property
    def live_events(self) -> int:
        """Number of queued events that will actually fire.

        Unlike :attr:`pending_events` this excludes lazily deleted
        (cancelled) entries still sitting in their buckets.
        """
        return self._live

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @staticmethod
    def _as_cycles(value: Any, what: str) -> int:
        """Coerce a delay/timestamp to int cycles, rejecting fractions.

        ``int(0.5)`` silently truncating to 0 reorders events relative to a
        run where the caller meant 1; fractional cycle values are always a
        bug upstream (float arithmetic leaking into the timing model).
        Any integral type (``__index__``, e.g. numpy ints) is accepted.
        """
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
        else:
            try:
                return operator.index(value)
            except TypeError:
                pass
        raise SimulationError(
            f"non-integral {what}={value!r}; cycle arithmetic must produce "
            "ints (use // instead of /)"
        )

    # The four scheduling entry points share one inline guard —
    # ``type(x) is not int or x out-of-range`` — that falls through to
    # these slow-path validators.  The hot path (int, in range) pays no
    # extra call frame; the cold path (floats, numpy ints, negatives)
    # pays one frame and centralizes the coercion + error text.
    def _coerce_delay(self, delay: Any) -> int:
        delay = self._as_cycles(delay, "delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return delay

    def _coerce_when(self, when: Any) -> int:
        when = self._as_cycles(when, "when")
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at cycle {when}, current time is {self._now}"
            )
        return when

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if type(delay) is not int or delay < 0:
            delay = self._coerce_delay(delay)
        when = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, args, self)
        self._live += 1
        if when < self._horizon:
            self._wheel[when & _WHEEL_MASK].append(event)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, (when, seq, event))
        return event

    def schedule_at(self, when: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute cycle ``when``."""
        if type(when) is not int or when < self._now:
            when = self._coerce_when(when)
        seq = self._seq
        self._seq = seq + 1
        event = Event(when, seq, callback, args, self)
        self._live += 1
        if when < self._horizon:
            self._wheel[when & _WHEEL_MASK].append(event)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, (when, seq, event))
        return event

    def post(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a fire-and-forget callback ``delay`` cycles from now.

        Identical ordering semantics to :meth:`schedule`, but no
        :class:`Event` handle is created, so the callback cannot be
        cancelled.  Use for the simulator's bulk traffic (deliveries,
        completions, responses) where nothing ever cancels.
        """
        if type(delay) is not int or delay < 0:
            delay = self._coerce_delay(delay)
        when = self._now + delay
        self._live += 1
        if when < self._horizon:
            self._wheel[when & _WHEEL_MASK].append((callback, args))
            self._wheel_count += 1
        else:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._overflow, (when, seq, (callback, args)))

    def post_at(self, when: int, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget variant of :meth:`schedule_at` (no Event handle)."""
        if type(when) is not int or when < self._now:
            when = self._coerce_when(when)
        self._live += 1
        if when < self._horizon:
            self._wheel[when & _WHEEL_MASK].append((callback, args))
            self._wheel_count += 1
        else:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._overflow, (when, seq, (callback, args)))

    def post_chain_at(
        self,
        when: int,
        callback: Callable[..., None],
        args: tuple,
        link_delay: int,
        link_callback: Callable[..., None],
        link_args: tuple,
    ) -> None:
        """Schedule a fused two-hop chain with one insertion.

        ``callback(*args)`` runs at ``when``; immediately after it
        returns, the engine inserts ``link_callback(*link_args)``
        ``link_delay`` cycles later.  The continuation lands exactly
        where a ``post(link_delay, ...)`` issued as the first callback's
        final statement would, so fusing a deterministic-latency hop
        chain is bit-identical to scheduling the hops separately.

        ``link_delay`` must be >= 1: a zero-delay continuation would
        land in the bucket currently being dispatched, where "end of the
        first callback" and "end of the bucket" differ.
        """
        if type(when) is not int or when < self._now:
            when = self._coerce_when(when)
        if type(link_delay) is not int or link_delay < 1:
            raise SimulationError(
                f"chain link_delay must be a positive int (got {link_delay!r})"
            )
        entry = [callback, args, link_delay, link_callback, link_args]
        self._live += 1
        if when < self._horizon:
            self._wheel[when & _WHEEL_MASK].append(entry)
            self._wheel_count += 1
        else:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._overflow, (when, seq, entry))

    def post_late_at(self, when: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` in cycle ``when``'s *late* phase.

        Late entries dispatch after every ordinary entry at ``when``
        (including same-cycle appends those entries make), in FIFO order.
        Only near-term work may be late-posted: ``when`` must lie inside
        the current wheel window, since the late array has no overflow
        heap.  Every use in the simulator arms a drain for a cycle at
        most one NoC hop away, so the window (4096 cycles) is never a
        constraint in practice.
        """
        if type(when) is not int or when < self._now:
            when = self._coerce_when(when)
        if when >= self._horizon:
            raise SimulationError(
                f"late post at cycle {when} is beyond the wheel horizon "
                f"{self._horizon}; late entries must be near-term"
            )
        self._live += 1
        self._wheel_late[when & _WHEEL_MASK].append((callback, args))
        self._wheel_count += 1

    def advance_clock(self, when: int) -> None:
        """Move the clock (and window) forward to ``when`` without dispatching.

        Only legal when no queued entry precedes ``when`` — i.e. after
        ``run_until(when - 1)`` has drained everything earlier.  Used by
        the epoch barrier, which needs ``engine.now`` to stand at a
        boundary cycle *before* any of that cycle's events run, so epoch
        accounting observes the same clock however the run is chunked.
        """
        if type(when) is not int:
            when = self._as_cycles(when, "when")
        if when < self._now:
            raise SimulationError(
                f"cannot advance the clock to {when}, current time is {self._now}"
            )
        self._now = when
        if self._wheel_pos < when:
            self._slide(when)

    def _slide(self, pos: int) -> int:
        """Start the window at ``pos`` and refill it from the overflow heap.

        The only way the window moves.  Overflow entries the new window
        covers are popped in ``(when, seq)`` order and appended to their
        buckets — *before* any direct insert for those cycles can happen,
        which preserves the overflow-first ordering argument.  Returns the
        first cycle at which the window would cover the remaining
        overflow head (``_NEVER`` when the heap is empty): the dispatch
        loops slide again once they reach it.
        """
        horizon = pos + _WHEEL_SIZE
        self._wheel_pos = pos
        self._horizon = horizon
        overflow = self._overflow
        wheel = self._wheel
        moved = 0
        while overflow and overflow[0][0] < horizon:
            entry = heapq.heappop(overflow)
            wheel[entry[0] & _WHEEL_MASK].append(entry[2])
            moved += 1
        self._wheel_count += moved
        return overflow[0][0] - _WHEEL_SIZE + 1 if overflow else _NEVER

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    #
    # Both loops walk the window one cycle at a time.  A cycle's entries
    # dispatch in two passes over the same per-entry loop: the ordinary
    # bucket, then the late bucket.  Before the late pass the late list
    # is swapped into the ordinary slot, so zero-delay posts made by late
    # callbacks land in the list being walked (the late slot aliases it
    # too, so further post_late_at(now) calls are picked up as well).
    # The list iterator picks up same-cycle appends in either pass.  A
    # callback that raises leaves the slot swapped.  The window slides
    # only at a cycle the loop is about to visit, never past the clock
    # the run returns with.

    def run_until(self, deadline: int) -> None:
        """Dispatch events with timestamp <= ``deadline``.

        The clock is left at ``deadline`` even if the queue drains early, so
        callers can rely on ``engine.now`` after the call.
        """
        if type(deadline) is not int:
            deadline = self._as_cycles(deadline, "deadline")
        wheel = self._wheel
        late_wheel = self._wheel_late
        overflow = self._overflow
        sanitizer = self.sanitizer
        dispatched = 0
        pos = self._wheel_pos
        next_refill = self._slide(pos)
        try:
            while pos <= deadline:
                if pos >= next_refill:
                    next_refill = self._slide(pos)
                slot = pos & _WHEEL_MASK
                bucket = wheel[slot]
                if not bucket and not late_wheel[slot]:
                    if self._wheel_count:
                        pos += 1
                    elif overflow and overflow[0][0] <= deadline:
                        # wheel empty: jump straight to the overflow head
                        pos = overflow[0][0]
                    else:
                        break
                    continue
                self._wheel_pos = pos
                self._horizon = pos + _WHEEL_SIZE
                prev = self._now
                self._now = pos
                entries = bucket
                while True:
                    for entry in entries:
                        kind = type(entry)
                        if kind is not tuple and kind is not list and entry.cancelled:
                            continue
                        if sanitizer is not None:
                            sanitizer.on_event(pos, prev)
                            prev = pos
                        if kind is tuple:
                            entry[0](*entry[1])
                        elif kind is list:
                            entry[0](*entry[1])
                            # fused chain: the continuation lands exactly
                            # where a post() made by the callback would
                            self.post_at(pos + entry[2], entry[3], *entry[4])
                        else:
                            entry.fired = True
                            entry.callback(*entry.args)
                        dispatched += 1
                    self._wheel_count -= len(entries)
                    entries.clear()
                    if entries is not bucket:
                        wheel[slot] = bucket
                        break
                    entries = late_wheel[slot]
                    if not entries:
                        break
                    wheel[slot] = entries
                pos += 1
                # callbacks may have pushed new far-future work
                next_refill = overflow[0][0] - _WHEEL_SIZE + 1 if overflow else _NEVER
        finally:
            # cancelled entries already decremented _live in cancel(); the
            # dispatched ones are settled in one batch here
            self._live -= dispatched
            self.dispatched += dispatched
            global _dispatched_total
            _dispatched_total += dispatched
        if self._now < deadline:
            self._now = deadline
        if self._wheel_pos < deadline:
            self._slide(deadline)

    def run(self, max_events: int | None = None) -> int:
        """Dispatch events until the queue is empty.

        Returns the number of events dispatched.  ``max_events`` guards
        against runaway self-rescheduling components; on the guard trip
        the offending entry (and everything after it) stays queued and
        the clock stands at the aborted bucket's timestamp.
        """
        wheel = self._wheel
        late_wheel = self._wheel_late
        overflow = self._overflow
        sanitizer = self.sanitizer
        dispatched = 0
        pos = self._wheel_pos
        next_refill = self._slide(pos)
        try:
            while True:
                if pos >= next_refill:
                    next_refill = self._slide(pos)
                slot = pos & _WHEEL_MASK
                bucket = wheel[slot]
                if not bucket and not late_wheel[slot]:
                    if self._wheel_count:
                        pos += 1
                    elif overflow:
                        pos = overflow[0][0]
                    else:
                        break
                    continue
                self._wheel_pos = pos
                self._horizon = pos + _WHEEL_SIZE
                prev = self._now
                self._now = pos
                entries = bucket
                while True:
                    # indexed walk: a guard trip must know how far it got
                    index = 0
                    while index < len(entries):
                        entry = entries[index]
                        kind = type(entry)
                        if kind is not tuple and kind is not list and entry.cancelled:
                            index += 1
                            continue
                        if max_events is not None and dispatched >= max_events:
                            del entries[:index]
                            self._wheel_count -= index
                            wheel[slot] = bucket
                            raise SimulationError(f"exceeded max_events={max_events}")
                        if sanitizer is not None:
                            sanitizer.on_event(pos, prev)
                            prev = pos
                        if kind is tuple:
                            entry[0](*entry[1])
                        elif kind is list:
                            entry[0](*entry[1])
                            self.post_at(pos + entry[2], entry[3], *entry[4])
                        else:
                            entry.fired = True
                            entry.callback(*entry.args)
                        dispatched += 1
                        index += 1
                    self._wheel_count -= index
                    entries.clear()
                    if entries is not bucket:
                        wheel[slot] = bucket
                        break
                    entries = late_wheel[slot]
                    if not entries:
                        break
                    wheel[slot] = entries
                pos += 1
                next_refill = overflow[0][0] - _WHEEL_SIZE + 1 if overflow else _NEVER
        finally:
            self._live -= dispatched
            self.dispatched += dispatched
            global _dispatched_total
            _dispatched_total += dispatched
        return dispatched


class _EngineMixin:
    """Seeded-RNG layer shared by both backends' engines.

    ``Engine`` composes it with :class:`TimingWheel`;
    :mod:`repro.accel.engine` composes the same mixin with the compiled
    wheel type.  Everything here touches wheel state only through
    attribute access, which both backends expose identically.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._seed = seed
        self._rng_children: dict[str, Generator] = {}
        self._epoch_listeners: list[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def rng(self, name: str) -> Generator:
        """Return a named, reproducible random generator.

        The same name always maps to the same stream for a given master
        seed, independent of creation order.
        """
        generator = self._rng_children.get(name)
        if generator is None:
            # A stable digest, NOT builtin hash(): str hashing is salted by
            # PYTHONHASHSEED, which would silently give each process its
            # own streams and break cross-process replay.
            digest = sha256(name.encode("utf-8")).digest()
            spawn_key = int.from_bytes(digest[:8], "big")
            generator = Generator(SeedSequence(self._seed, spawn_key=(spawn_key,)))
            self._rng_children[name] = generator
        return generator


class Engine(_EngineMixin, TimingWheel):
    """Event-driven simulator core with integer cycle time.

    Parameters
    ----------
    seed:
        Master seed.  Component RNGs are derived from it via
        :meth:`rng` so that adding a new consumer does not perturb the
        streams of existing ones.
    """
