"""Property test: the timing wheel must order-match a reference heap.

The engine's contract is exact ``(when, seq)`` dispatch order — the
timing wheel is an implementation detail that must be observationally
identical to the straightforward binary-heap scheduler it replaced.
This test drives random interleavings of ``schedule``/``post``/
``post_at``/``post_chain_at``/``post_late_at``/``cancel``/``run_until``
/``run`` through the real :class:`~repro.sim.engine.Engine` and through
a small heapq reference, and requires identical dispatch logs, clocks,
and live-event counts (including the cancel-after-dispatch edge, which
must not decrement the counter twice).  Each case runs with and without
a :class:`~repro.sim.sanitizer.SimSanitizer`, which must see exactly one
``on_event`` per dispatched entry.

Delays deliberately straddle the wheel horizon (4096 cycles) so entries
take both the direct-bucket path and the overflow-heap path.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import _WHEEL_SIZE, Engine
from repro.sim.sanitizer import SimSanitizer


class _RefEvent:
    """Cancellable handle mirroring ``repro.sim.engine.Event``."""

    __slots__ = ("engine", "cancelled", "fired")

    def __init__(self, engine: "ReferenceEngine") -> None:
        self.engine = engine
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self.engine._live -= 1


class ReferenceEngine:
    """Minimal binary-heap scheduler with lazy cancellation.

    Heap keys are ``(when, phase, seq)``: a cycle's late entries (phase
    1) dispatch after all of its ordinary ones, each phase in insertion
    order.  A zero-delay post made while a cycle's late phase runs joins
    that phase, as it does on the wheel.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0
        self._late_phase = False
        self.now = 0

    @property
    def live_events(self) -> int:
        return self._live

    def _push(self, when: int, item: tuple, late: bool = False) -> None:
        phase = 1 if late or (self._late_phase and when == self.now) else 0
        heapq.heappush(self._heap, (when, phase, self._seq, item))
        self._seq += 1
        self._live += 1

    def schedule(self, delay: int, callback, *args) -> _RefEvent:
        event = _RefEvent(self)
        self._push(self.now + delay, (event, callback, args))
        return event

    def post(self, delay: int, callback, *args) -> None:
        self._push(self.now + delay, (None, callback, args))

    def post_at(self, when: int, callback, *args) -> None:
        self._push(when, (None, callback, args))

    def post_late_at(self, when: int, callback, *args) -> None:
        self._push(when, (None, callback, args), late=True)

    def post_chain_at(
        self, when, callback, args, link_delay, link_callback, link_args
    ) -> None:
        self._push(
            when, ("chain", callback, args, link_delay, link_callback, link_args)
        )

    def _dispatch(self, limit: float) -> None:
        heap = self._heap
        while heap and heap[0][0] <= limit:
            when, phase, _, item = heapq.heappop(heap)
            self.now = when
            self._late_phase = phase == 1
            if item[0] == "chain":
                _, callback, args, link_delay, link_callback, link_args = item
                self._live -= 1
                callback(*args)
                # continuation enqueued right after the first hop returns,
                # exactly like a post() made from inside the callback
                self._push(when + link_delay, (None, link_callback, link_args))
            else:
                event, callback, args = item
                if event is not None:
                    if event.cancelled:
                        continue
                    event.fired = True
                self._live -= 1
                callback(*args)
        self._late_phase = False

    def run_until(self, deadline: int) -> None:
        self._dispatch(deadline)
        if self.now < deadline:
            self.now = deadline

    def run(self) -> None:
        self._dispatch(float("inf"))


class Driver:
    """Applies one op sequence to either engine and records dispatches."""

    def __init__(self, host) -> None:
        self.host = host
        self.log: list[tuple[int, int]] = []
        self.events: list = []

    def _fire(self, tag: int, spawn) -> None:
        self.log.append((tag, self.host.now))
        # nested scheduling from inside a callback: same-cycle and
        # later-cycle follow-ups must order identically on both hosts
        if spawn == "late":
            self.host.post_late_at(self.host.now, self._fire, tag + 100_000, None)
        elif spawn is not None:
            self.host.post(spawn, self._fire, tag + 100_000, None)

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "schedule":
            _, delay, tag, spawn = op
            self.events.append(self.host.schedule(delay, self._fire, tag, spawn))
        elif kind == "post":
            _, delay, tag, spawn = op
            self.host.post(delay, self._fire, tag, spawn)
        elif kind == "post_at":
            _, offset, tag, spawn = op
            self.host.post_at(self.host.now + offset, self._fire, tag, spawn)
        elif kind == "late":
            _, offset, tag, spawn = op
            self.host.post_late_at(self.host.now + offset, self._fire, tag, spawn)
        elif kind == "chain":
            _, offset, link_delay, tag = op
            self.host.post_chain_at(
                self.host.now + offset,
                self._fire,
                (tag, None),
                link_delay,
                self._fire,
                (tag + 200_000, None),
            )
        elif kind == "cancel":
            if self.events:
                # may target an already-fired or already-cancelled event:
                # both must be no-ops on the live counter
                self.events[op[1] % len(self.events)].cancel()
        elif kind == "run":
            self.host.run_until(self.host.now + op[1])
        elif kind == "drain":
            self.host.run()
        else:  # pragma: no cover - defense against strategy drift
            raise AssertionError(f"unknown op {op!r}")


def check_against_reference(engine, ops, sanitize: bool) -> None:
    """Replay ``ops`` on ``engine`` and the reference; demand equal runs."""
    sanitizer = SimSanitizer() if sanitize else None
    engine.sanitizer = sanitizer
    wheel = Driver(engine)
    reference = Driver(ReferenceEngine())
    for op in ops:
        wheel.apply(op)
        reference.apply(op)
        assert wheel.host.live_events == reference.host.live_events
    # drain everything still queued so every insertion is order-checked
    final = max(wheel.host.now + 4 * _SPAN, 8 * _SPAN)
    wheel.host.run_until(final)
    reference.host.run_until(final)
    assert wheel.log == reference.log
    assert wheel.host.now == reference.host.now
    assert wheel.host.live_events == reference.host.live_events
    assert engine.dispatched == len(wheel.log)
    if sanitizer is not None:
        assert sanitizer.checks == len(wheel.log)


# Delays/offsets up to ~2.5 wheel turns so both the direct-bucket insert
# and the overflow heap (plus refills) are exercised.
_SPAN = int(_WHEEL_SIZE * 2.5)
_TAGS = st.integers(min_value=0, max_value=999)
# None: no follow-up; an int: a post that many cycles later (0 lands in
# the bucket being walked); "late": a post_late_at(now)
_SPAWN = st.sampled_from((None, None, None, 0, 1, 3, "late"))
_OPS = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(min_value=0, max_value=_SPAN),
        _TAGS,
        _SPAWN,
    ),
    st.tuples(
        st.just("post"),
        st.integers(min_value=0, max_value=_SPAN),
        _TAGS,
        _SPAWN,
    ),
    st.tuples(
        st.just("post_at"),
        st.integers(min_value=0, max_value=_SPAN),
        _TAGS,
        _SPAWN,
    ),
    st.tuples(
        st.just("late"),
        st.integers(min_value=0, max_value=_WHEEL_SIZE - 1),
        _TAGS,
        _SPAWN,
    ),
    st.tuples(
        st.just("chain"),
        st.integers(min_value=0, max_value=_SPAN),
        st.integers(min_value=1, max_value=64),
        _TAGS,
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=_SPAN)),
    st.tuples(st.just("drain")),
)

#: Window-movement cases random ops rarely hit: each needs an overflow
#: entry and a direct insert to collide on one exact cycle.
WINDOW_CASES = {
    # run() must refill after a dispatched bucket, not only after an
    # empty one: the 4095-cycle spawn at 905 lands on the overflow
    # entry's cycle while buckets 904 and 905 are busy
    "run_refills_after_busy_buckets": [
        ("post", 5000, 1, None),
        ("post", 904, 2, None),
        ("post", 905, 3, _WHEEL_SIZE - 1),
        ("drain",),
    ],
    # run_until stops with the window at its deadline, so a post at the
    # returned clock is inside the window, not a wheel turn ahead
    "post_at_clock_after_refill_point": [
        ("post", _WHEEL_SIZE + 10, 1, None),
        ("post", 100, 2, None),
        ("run", 10),
        ("post", 0, 3, None),
        ("run", 10),
    ],
    # an early exit that moves the window to the deadline refills it
    "early_exit_refills_window": [
        ("post", 5000, 1, None),
        ("run", 4000),
        ("post", 1000, 2, None),
        ("run", 2000),
    ],
}


@settings(max_examples=75, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=60))
def test_wheel_matches_reference_heap(ops):
    check_against_reference(Engine(), ops, sanitize=False)


@settings(max_examples=75, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=60))
def test_sanitized_wheel_matches_reference_heap(ops):
    check_against_reference(Engine(), ops, sanitize=True)


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_window_moves_keep_reference_order(case, sanitize):
    check_against_reference(Engine(), WINDOW_CASES[case], sanitize)


def test_cancel_after_dispatch_is_settled_once():
    """Firing settles the counter; a late cancel must not touch it."""
    wheel = Engine()
    reference = ReferenceEngine()
    fired = []
    wheel_event = wheel.schedule(3, fired.append, "wheel")
    ref_event = reference.schedule(3, fired.append, "ref")
    wheel.run_until(10)
    reference.run_until(10)
    assert fired == ["wheel", "ref"]
    assert wheel.live_events == reference.live_events == 0
    wheel_event.cancel()
    ref_event.cancel()
    assert wheel.live_events == reference.live_events == 0
