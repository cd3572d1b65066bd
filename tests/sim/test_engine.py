"""Unit tests for the discrete-event engine."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_runs_callbacks_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(30, order.append, "c")
        engine.schedule(10, order.append, "a")
        engine.schedule(20, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        order = []
        for tag in range(5):
            engine.schedule(7, order.append, tag)
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]

    def test_schedule_zero_delay_runs_at_current_time(self):
        engine = Engine()
        seen = []
        engine.schedule(5, lambda: engine.schedule(0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        assert engine.now == 10
        with pytest.raises(SimulationError):
            engine.schedule_at(5, lambda: None)

    def test_callbacks_receive_args(self):
        engine = Engine()
        result = []
        engine.schedule(1, lambda a, b: result.append(a + b), 2, 3)
        engine.run()
        assert result == [5]


class TestIntegralDelays:
    """Float cycle values must fail loudly, never silently truncate."""

    def test_fractional_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="non-integral delay"):
            engine.schedule(0.5, lambda: None)  # repro: noqa[SIM001]

    def test_fractional_when_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="non-integral when"):
            engine.schedule_at(10.25, lambda: None)  # repro: noqa[SIM001]

    def test_integral_float_accepted(self):
        engine = Engine()
        seen = []
        engine.schedule(3.0, lambda: seen.append(engine.now))  # repro: noqa[SIM001]
        engine.run()
        assert seen == [3]

    def test_numpy_integer_accepted(self):
        np = pytest.importorskip("numpy")

        engine = Engine()
        seen = []
        engine.schedule(np.int64(4), lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4]

    def test_index_integer_accepted(self):
        """Any integral type is coerced through ``__index__``."""

        class Cycles:
            def __index__(self):
                return 6

        engine = Engine()
        seen = []
        engine.schedule(Cycles(), lambda: seen.append(engine.now))
        engine.schedule_at(Cycles(), lambda: seen.append(engine.now))
        engine.run()
        assert seen == [6, 6]

    def test_non_integral_object_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="non-integral delay"):
            engine.schedule("3", lambda: None)

    def test_fractional_never_truncates_to_reordering(self):
        """The historic failure: int(0.5) -> 0 reordered events."""
        engine = Engine()
        engine.schedule(1, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(0.5, lambda: None)  # repro: noqa[SIM001]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(10, fired.append, "x")
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        event = engine.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        engine.run()

    def test_cancel_one_of_many(self):
        engine = Engine()
        fired = []
        keep = engine.schedule(10, fired.append, "keep")
        drop = engine.schedule(10, fired.append, "drop")
        drop.cancel()
        engine.run()
        assert fired == ["keep"]
        assert not keep.cancelled

    def test_cancelled_event_at_queue_head_is_skipped(self):
        """Lazy deletion: the dead head is discarded, later events fire."""
        engine = Engine()
        fired = []
        head = engine.schedule(5, fired.append, "head")
        engine.schedule(10, fired.append, "tail")
        head.cancel()
        engine.run_until(20)
        assert fired == ["tail"]
        assert engine.now == 20

    def test_pending_events_counts_cancelled_until_popped(self):
        """Lazy deletion leaves dead events in the queue; pending_events
        reflects the raw queue length, not the live-event count."""
        engine = Engine()
        live = engine.schedule(5, lambda: None)
        dead = engine.schedule(10, lambda: None)
        dead.cancel()
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0
        assert dead.cancelled and not live.cancelled

    def test_run_dispatch_count_excludes_cancelled(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.schedule(2, lambda: None).cancel()
        assert engine.run() == 1


class TestRunUntil:
    def test_run_until_stops_at_deadline(self):
        engine = Engine()
        fired = []
        engine.schedule(10, fired.append, "early")
        engine.schedule(100, fired.append, "late")
        engine.run_until(50)
        assert fired == ["early"]
        assert engine.now == 50
        engine.run_until(150)
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_even_when_idle(self):
        engine = Engine()
        engine.run_until(123)
        assert engine.now == 123

    def test_event_exactly_at_deadline_fires(self):
        engine = Engine()
        fired = []
        engine.schedule(50, fired.append, True)
        engine.run_until(50)
        assert fired == [True]

    def test_clock_lands_on_deadline_when_queue_drains_early(self):
        """All events fire well before the deadline; the clock must still
        end exactly at the deadline so callers can chain run_until calls."""
        engine = Engine()
        fired = []
        engine.schedule(3, fired.append, "a")
        engine.schedule(7, fired.append, "b")
        engine.run_until(1_000)
        assert fired == ["a", "b"]
        assert engine.now == 1_000
        assert engine.pending_events == 0


class TestRun:
    def test_returns_dispatch_count(self):
        engine = Engine()
        for _ in range(7):
            engine.schedule(1, lambda: None)
        assert engine.run() == 7

    def test_max_events_guard(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1, reschedule)

        engine.schedule(0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=100)


def draws(rng, n: int) -> list[int]:
    return [rng.integers(0, 1 << 30) for _ in range(n)]


class TestRng:
    def test_same_name_same_stream(self):
        a = draws(Engine(seed=7).rng("x"), 10)
        b = draws(Engine(seed=7).rng("x"), 10)
        assert list(a) == list(b)

    def test_different_names_different_streams(self):
        engine = Engine(seed=7)
        a = draws(engine.rng("x"), 10)
        b = draws(engine.rng("y"), 10)
        assert list(a) != list(b)

    def test_different_seeds_different_streams(self):
        a = draws(Engine(seed=1).rng("x"), 10)
        b = draws(Engine(seed=2).rng("x"), 10)
        assert list(a) != list(b)

    def test_rng_cached_per_name(self):
        engine = Engine()
        assert engine.rng("x") is engine.rng("x")

    def test_stream_independent_of_creation_order(self):
        e1 = Engine(seed=3)
        e1.rng("a")
        v1 = draws(e1.rng("b"), 5)
        e2 = Engine(seed=3)
        v2 = draws(e2.rng("b"), 5)
        assert list(v1) == list(v2)


class TestRngCrossProcessStability:
    """Named streams must not depend on the process's string-hash salt.

    The seed derivation once used ``abs(hash(name))``, which varies with
    ``PYTHONHASHSEED`` — every worker process silently got different
    streams.  Spawn subprocesses with different hash seeds and require
    identical draws.
    """

    SNIPPET = (
        "from repro.sim.engine import Engine;"
        "rng = Engine(seed=7).rng('core.0');"
        "print([rng.integers(0, 1 << 30) for _ in range(8)])"
    )

    def _draws(self, hash_seed: str) -> str:
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return proc.stdout.strip()

    def test_streams_identical_across_hash_seeds(self):
        draws = {self._draws(seed) for seed in ("0", "1", "424242")}
        assert len(draws) == 1, f"streams diverged across processes: {draws}"

    def test_subprocess_matches_in_process(self):
        expected = draws(Engine(seed=7).rng("core.0"), 8)
        assert self._draws("0") == str(expected)


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_property_events_dispatch_in_nondecreasing_time(delays):
    engine = Engine()
    seen = []
    for delay in delays:
        engine.schedule(delay, lambda: seen.append(engine.now))
    engine.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


class TestLiveEventCounter:
    def test_live_excludes_cancelled_pending_includes_them(self):
        engine = Engine()
        keep = engine.schedule(5, lambda: None)
        drop = engine.schedule(10, lambda: None)
        assert engine.live_events == 2
        drop.cancel()
        assert engine.live_events == 1
        assert engine.pending_events == 2  # lazy deletion: still in heap
        engine.run()
        assert engine.live_events == 0
        assert not keep.cancelled

    def test_cancel_after_dispatch_does_not_double_count(self):
        engine = Engine()
        event = engine.schedule(1, lambda: None)
        engine.run()
        assert engine.live_events == 0
        event.cancel()  # firing already settled the counter
        assert engine.live_events == 0

    def test_posts_count_as_live_until_dispatched(self):
        engine = Engine()
        engine.post(3, lambda: None)
        engine.post_at(7, lambda: None)
        assert engine.live_events == 2
        engine.run_until(5)
        assert engine.live_events == 1
        engine.run_until(10)
        assert engine.live_events == 0


class TestPost:
    """Fire-and-forget entries must order exactly like Event entries."""

    def test_post_interleaves_with_schedule_by_insertion_order(self):
        engine = Engine()
        order = []
        engine.schedule(5, order.append, "event-a")
        engine.post(5, order.append, "post-b")
        engine.schedule(5, order.append, "event-c")
        engine.post_at(5, order.append, "post-d")
        engine.run()
        assert order == ["event-a", "post-b", "event-c", "post-d"]

    def test_post_counts_in_dispatch_totals(self):
        engine = Engine()
        engine.post(1, lambda: None)
        engine.schedule(2, lambda: None)
        assert engine.run() == 2
        assert engine.dispatched == 2

    def test_post_rejects_negative_delay_and_past_timestamps(self):
        engine = Engine()
        engine.run_until(10)
        with pytest.raises(SimulationError):
            engine.post(-1, lambda: None)
        with pytest.raises(SimulationError):
            engine.post_at(9, lambda: None)

    def test_post_rejects_fractional_delay(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.post(0.5, lambda: None)  # repro: noqa[SIM001]

    def test_post_survives_run_max_events_repush(self):
        """A bare post entry hitting the max_events guard is re-queued."""
        engine = Engine()
        fired = []
        engine.post(1, fired.append, "first")
        engine.post(2, fired.append, "second")
        with pytest.raises(SimulationError):
            engine.run(max_events=1)
        assert fired == ["first"]
        engine.run()
        assert fired == ["first", "second"]
