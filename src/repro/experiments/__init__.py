"""Experiment definitions, one module per figure in the paper's evaluation.

Each module exposes ``run(quick=False, seed=0)`` returning a result object
with a ``report()`` method that prints the figure's rows/series.  The
``benchmarks/`` directory wraps these for pytest-benchmark; EXPERIMENTS.md
records paper-vs-measured values.  Figure modules and the re-exports
below are imported on first access (:mod:`repro._lazy`), so running one
figure imports only that figure.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments import (
        fig01_motivation,
        fig05_proportional,
        fig06_work_conserving,
        fig07_source_and_target,
        fig08_excess,
        fig09_memcached,
        fig10_isolation,
        fig11_iaas,
        fig12_efficiency,
    )
    from repro.experiments.common import (
        ClassSpec,
        RunResult,
        build_system,
        run_system,
    )

__all__ = [
    "ClassSpec", "RunResult", "build_system", "run_system",
    "fig01_motivation", "fig05_proportional", "fig06_work_conserving",
    "fig07_source_and_target", "fig08_excess", "fig09_memcached",
    "fig10_isolation", "fig11_iaas", "fig12_efficiency",
]

__getattr__ = lazy_exports(__name__, {
    "repro.experiments.common": [
        "ClassSpec", "RunResult", "build_system", "run_system",
    ],
    **{
        f"repro.experiments.{name}": [name]
        for name in __all__
        if name.startswith("fig")
    },
})
