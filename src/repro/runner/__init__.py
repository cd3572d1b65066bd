"""Parallel experiment runner: sweeps, caching, and benchmarking.

The nine ``fig*`` experiment modules each expose their grid as
``sweep_cells(quick)`` — a list of independent kwargs dicts for their
``run()`` function.  This package turns those grids into:

* :mod:`repro.runner.spec` — :class:`RunSpec`, a content-hashed
  description of one cell run (figure, cell kwargs, seed, quick mode,
  config overrides);
* :mod:`repro.runner.pool` — process-pool fan-out with per-spec
  timeouts, failure isolation, and a sequential fallback;
* :mod:`repro.runner.cache` — an on-disk result cache keyed by spec
  hash + source fingerprint, so repeated sweeps are near-instant;
* :mod:`repro.runner.bench` — wall-clock / events-per-second benchmarks
  with a committed-baseline regression check (CI's perf smoke test)
  and an append-only ``BENCH_history.jsonl`` perf trajectory.

None of this code runs inside simulated time: the simulation kernels it
drives stay bit-identical whether invoked directly, through a sweep, or
from the cache (the cache stores the byte-exact report text).  The
re-exports below resolve on first access (:mod:`repro._lazy`), so a run
that only needs :func:`source_fingerprint` never imports the process
pool.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runner.cache import ResultCache
    from repro.runner.fingerprint import source_fingerprint
    from repro.runner.pool import SweepOutcome, run_specs
    from repro.runner.spec import RunSpec, specs_for_figure

__all__ = [
    "ResultCache",
    "RunSpec",
    "SweepOutcome",
    "run_specs",
    "source_fingerprint",
    "specs_for_figure",
]

__getattr__ = lazy_exports(__name__, {
    "repro.runner.cache": ["ResultCache"],
    "repro.runner.fingerprint": ["source_fingerprint"],
    "repro.runner.pool": ["SweepOutcome", "run_specs"],
    "repro.runner.spec": ["RunSpec", "specs_for_figure"],
})
