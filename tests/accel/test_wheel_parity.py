"""Parity properties: the compiled wheel against the pure reference.

Reuses the heap-reference ``Driver`` machinery from the pure wheel's
property test: random ``schedule``/``post``/``post_at``/``post_chain_at``
/``cancel``/``run_until`` interleavings must produce identical dispatch
logs, clocks, and live-event counts on the compiled engine — including
the cancel-after-dispatch edge.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.sim.engine import SimulationError, _WHEEL_SIZE

from tests.sim.test_wheel_property import _OPS, _SPAN, Driver, ReferenceEngine


def _c_engine(seed: int = 0):
    with accel.backend("c"):
        return accel.make_engine(seed)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=60))
def test_c_wheel_matches_reference_heap(c_backend, ops):
    wheel = Driver(_c_engine())
    reference = Driver(ReferenceEngine())
    for op in ops:
        wheel.apply(op)
        reference.apply(op)
        assert wheel.host.live_events == reference.host.live_events
    final = max(wheel.host.now + 4 * _SPAN, 8 * _SPAN)
    wheel.host.run_until(final)
    reference.host.run_until(final)
    assert wheel.log == reference.log
    assert wheel.host.now == reference.host.now
    assert wheel.host.live_events == reference.host.live_events


def test_cancel_after_dispatch_is_settled_once(c_backend):
    engine = _c_engine()
    fired = []
    event = engine.schedule(3, fired.append, "c")
    engine.run_until(10)
    assert fired == ["c"]
    assert engine.live_events == 0
    event.cancel()
    assert engine.live_events == 0


@pytest.mark.parametrize("max_events", [10, 10_000])
def test_run_guard_parity(c_backend, max_events):
    """``run(max_events=...)`` trips (or not) identically on both backends."""
    outcomes = []
    for name in ("pure", "c"):
        with accel.backend(name):
            engine = accel.make_engine()

        def tick(remaining, engine=engine):
            if remaining:
                engine.post(3, tick, remaining - 1)

        engine.post(0, tick, 50)
        # overflow entries too, so the guard crosses a refill boundary
        engine.post_at(int(_WHEEL_SIZE * 1.5), tick, 2)
        error = None
        try:
            count = engine.run(max_events=max_events)
        except SimulationError as exc:
            count, error = None, str(exc)
        outcomes.append(
            (count, error, engine.now, engine.live_events, engine.dispatched)
        )
    assert outcomes[0] == outcomes[1]
    if max_events == 10:
        assert "max_events" in (outcomes[0][1] or "")
