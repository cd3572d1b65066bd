"""Parity properties: the compiled wheel against the pure reference.

Reuses the heap-reference machinery from the pure wheel's property
test: random ``schedule``/``post``/``post_at``/``post_chain_at``/
``post_late_at``/``cancel``/``run_until``/``run`` interleavings, with
and without a sanitizer, must produce identical dispatch logs, clocks,
and live-event counts on the compiled engine — including the
cancel-after-dispatch edge and the window-movement cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.sim.engine import SimulationError, _WHEEL_SIZE

from tests.sim.test_wheel_property import _OPS, WINDOW_CASES, check_against_reference


def _c_engine(seed: int = 0):
    with accel.backend("c"):
        return accel.make_engine(seed)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=60))
def test_c_wheel_matches_reference_heap(c_backend, ops):
    check_against_reference(_c_engine(), ops, sanitize=False)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=60))
def test_sanitized_c_wheel_matches_reference_heap(c_backend, ops):
    check_against_reference(_c_engine(), ops, sanitize=True)


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_c_window_moves_keep_reference_order(c_backend, case, sanitize):
    check_against_reference(_c_engine(), WINDOW_CASES[case], sanitize)


def test_cancel_after_dispatch_is_settled_once(c_backend):
    engine = _c_engine()
    fired = []
    event = engine.schedule(3, fired.append, "c")
    engine.run_until(10)
    assert fired == ["c"]
    assert engine.live_events == 0
    event.cancel()
    assert engine.live_events == 0


@pytest.mark.parametrize("max_events", [10, 11, 12, 10_000])
def test_run_guard_parity(c_backend, max_events):
    """``run(max_events=...)`` trips (or not) identically on both backends.

    Every tick arms two late entries in its own cycle, three events per
    cycle, so the limits 10, 11 and 12 trip the guard at the start of a
    late pass, in the middle of one, and at the next ordinary pass.
    """
    outcomes = []
    for name in ("pure", "c"):
        with accel.backend(name):
            engine = accel.make_engine()
        fired = []

        def tick(remaining, engine=engine, fired=fired):
            fired.append(("tick", engine.now))
            for phase in ("late-a", "late-b"):
                engine.post_late_at(engine.now, fired.append, (phase, engine.now))
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
            (
                count,
                error,
                engine.now,
                engine.live_events,
                engine.pending_events,
                engine.dispatched,
                fired,
            )
        )
    assert outcomes[0] == outcomes[1]
    if max_events < 100:
        assert "max_events" in (outcomes[0][1] or "")
