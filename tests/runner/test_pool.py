"""Tests for the sweep pool: caching, isolation, and parallel dispatch."""

import multiprocessing
import os

import pytest

from repro.obs.warnings import reset_warning_counters, warning_counts
from repro.runner import pool as pool_module
from repro.runner.cache import ResultCache
from repro.runner.pool import run_specs
from repro.runner.spec import RunSpec, specs_for_figure
from repro.runner.worker import execute_payload

#: The crash hook below reaches the workers through module globals, which
#: only a forked child inherits.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="needs fork-started pool workers",
)

#: Path of the once-only crash marker; set per test, inherited on fork.
_crash_marker = None


def _crash_first_cell(payload):
    """Kill the calling process on the first cell any process runs.

    ``O_EXCL`` makes the marker a once-only latch across the workers: the
    process that creates it exits without a result, every later call
    (the other worker, the parent's sequential fallback) runs normally.
    """
    try:
        fd = os.open(_crash_marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return execute_payload(payload)
    os.close(fd)
    os._exit(1)


class TestSequentialSweep:
    def test_runs_and_caches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for_figure("fig05", quick=True)[:1]
        outcomes = run_specs(specs, workers=1, cache=cache)
        assert [o.ok for o in outcomes] == [True]
        assert not outcomes[0].cached
        assert outcomes[0].result["events"] > 0
        assert outcomes[0].result["report"].startswith("Fig. 5")
        assert len(cache) == 1

        again = run_specs(specs, workers=1, cache=cache)
        assert again[0].cached
        assert again[0].result == outcomes[0].result

    def test_no_cache_flag_reruns_but_refreshes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for_figure("fig05", quick=True)[:1]
        run_specs(specs, cache=cache)
        fresh = run_specs(specs, cache=cache, use_cache=False)
        assert not fresh[0].cached
        assert fresh[0].ok

    def test_failure_is_isolated_and_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good = specs_for_figure("fig05", quick=True)[0]
        bad = RunSpec(figure="fig99")  # unknown figure fails inside the worker
        outcomes = run_specs([bad, good], cache=cache)
        assert not outcomes[0].ok
        assert "fig99" in outcomes[0].error
        assert outcomes[1].ok
        assert len(cache) == 1  # only the success was stored

    def test_bad_config_override_fails_cleanly(self, tmp_path):
        spec = RunSpec(figure="fig05", overrides={"no_such_field": 1})
        outcomes = run_specs([spec], cache=ResultCache(tmp_path / "c"))
        assert not outcomes[0].ok

    def test_overrides_change_the_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = RunSpec(figure="fig05")
        tweaked = RunSpec(figure="fig05", overrides={"epoch_cycles": 1000})
        outcomes = run_specs([base, tweaked], cache=cache)
        assert all(o.ok for o in outcomes)
        assert outcomes[0].result["report"] != outcomes[1].result["report"]


class TestBrokenPool:
    """A worker killed mid-cell breaks the pool; the sweep still finishes."""

    #: Tiny epochs so each cell's simulated window stays in the
    #: milliseconds; the fallback under test is scale-free.
    SPECS = [
        RunSpec(
            figure="fig05",
            cell={"measure_epochs": length},
            overrides={"epoch_cycles": 400},
        )
        for length in (5, 8)
    ]

    @pytest.fixture(autouse=True)
    def isolated_counters(self):
        reset_warning_counters()
        yield
        reset_warning_counters()

    @fork_only
    def test_killed_worker_falls_back_to_sequential(self, tmp_path, monkeypatch):
        sequential = run_specs(self.SPECS, workers=1)
        marker = tmp_path / "crashed"
        monkeypatch.setitem(globals(), "_crash_marker", str(marker))
        monkeypatch.setattr(pool_module, "execute_payload", _crash_first_cell)
        outcomes = run_specs(self.SPECS, workers=2)
        assert marker.exists()  # a worker really died
        assert [o.ok for o in outcomes] == [True, True]
        assert [o.result["report"] for o in outcomes] == [
            o.result["report"] for o in sequential
        ]
        assert warning_counts() == {"pool.broken": 1}


class TestParallelSweep:
    def test_two_workers_produce_correct_results(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for_figure("fig07", quick=True)[:2]
        outcomes = run_specs(specs, workers=2, cache=cache)
        assert [o.ok for o in outcomes] == [True, True]
        # parallel results match what a sequential in-process run reports
        sequential = run_specs(specs, workers=1, cache=cache, use_cache=False)
        for par, seq in zip(outcomes, sequential):
            assert par.result["report"] == seq.result["report"]

    def test_timeout_is_recorded_not_raised(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = specs_for_figure("fig07", quick=True)[:2]
        outcomes = run_specs(specs, workers=2, timeout=0.05, cache=cache)
        assert len(outcomes) == 2
        assert any(not o.ok and "timeout" in o.error for o in outcomes)
        # timed-out cells are never cached
        assert len(cache) <= sum(1 for o in outcomes if o.ok)
