"""Fig. 10 (Section IV-D): performance isolation for SPEC workloads.

A multiprogrammed SPEC class (high priority, 32:1) shares the machine with
a read-streaming aggressor class.  The baseline is the same SPEC class in
isolation with the same cache allocation.  The paper reports weighted
slowdown (Eq. 6) per workload for {no QoS, governor only, arbiter only,
PABST}: no QoS averages ~2.0x, PABST ~1.2x, and the combination always
beats either half alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import weighted_slowdown
from repro.analysis.report import format_table
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.mechanisms import make_mechanism
from repro.workloads.spec import SPEC_PROFILES, spec_workload
from repro.workloads.stream import StreamWorkload

__all__ = ["Fig10Result", "IsolationRow", "MECHANISM_ORDER", "default_workloads", "run", "sweep_cells"]

SPEC_WEIGHT = 32
STREAM_WEIGHT = 1
SPEC_CORES = 4
STREAM_CORES = 4
MECHANISM_ORDER = ("none", "source-only", "target-only", "pabst")


@dataclass(frozen=True)
class IsolationRow:
    """Weighted slowdowns for one SPEC workload."""

    workload: str
    isolated_ipc: float
    slowdowns: dict[str, float]


@dataclass
class Fig10Result:
    rows: list[IsolationRow] = field(default_factory=list)

    def mean_slowdown(self, mechanism: str) -> float:
        values = [row.slowdowns[mechanism] for row in self.rows]
        return sum(values) / len(values) if values else 0.0

    def report(self) -> str:
        table_rows = [
            (row.workload, *[row.slowdowns[m] for m in MECHANISM_ORDER])
            for row in self.rows
        ]
        table_rows.append(
            ("MEAN", *[self.mean_slowdown(m) for m in MECHANISM_ORDER])
        )
        return format_table(
            ["workload", *MECHANISM_ORDER],
            table_rows,
            title=(
                "Fig. 10 - weighted slowdown vs streaming aggressor "
                "(32:1 shares; 1.0 = isolated performance)"
            ),
        )


def _per_core_ipcs(system, core_ids: list[int]) -> list[float]:
    cycles = system.engine.now
    return [system.cores[core].instructions / cycles for core in core_ids]


def _isolated_ipcs(workload: str, epochs: int, seed: int) -> list[float]:
    specs = [
        ClassSpec(
            qos_id=0,
            name=workload,
            weight=SPEC_WEIGHT,
            cores=SPEC_CORES,
            workload_factory=lambda: spec_workload(workload),
            l3_ways=8,
        )
    ]
    system = build_system(specs, seed=seed)
    run_system(system, epochs=epochs, warmup_epochs=1)
    return _per_core_ipcs(system, list(range(SPEC_CORES)))


def _shared_ipcs(
    workload: str, mechanism: str, epochs: int, seed: int
) -> list[float]:
    specs = [
        ClassSpec(
            qos_id=0,
            name=workload,
            weight=SPEC_WEIGHT,
            cores=SPEC_CORES,
            workload_factory=lambda: spec_workload(workload),
            l3_ways=8,
        ),
        ClassSpec(
            qos_id=1,
            name="stream",
            weight=STREAM_WEIGHT,
            cores=STREAM_CORES,
            workload_factory=StreamWorkload,
            l3_ways=8,
        ),
    ]
    system = build_system(specs, mechanism=make_mechanism(mechanism), seed=seed)
    run_system(system, epochs=epochs, warmup_epochs=1)
    return _per_core_ipcs(system, list(range(SPEC_CORES)))


def default_workloads(quick: bool = False) -> tuple[str, ...]:
    """The workload set :func:`run` uses when none is given."""
    return ("libquantum", "sphinx3") if quick else tuple(sorted(SPEC_PROFILES))


def sweep_cells(quick: bool = False) -> list[dict]:
    """One independent cell per workload row."""
    return [{"workloads": (workload,)} for workload in default_workloads(quick)]


def run(
    workloads: tuple[str, ...] | None = None,
    quick: bool = False,
    seed: int = 0,
) -> Fig10Result:
    if workloads is None:
        workloads = default_workloads(quick)
    epochs = 50 if quick else 110
    result = Fig10Result()
    for workload in workloads:
        isolated = _isolated_ipcs(workload, epochs, seed)
        slowdowns = {}
        for mechanism in MECHANISM_ORDER:
            shared = _shared_ipcs(workload, mechanism, epochs, seed)
            slowdowns[mechanism] = weighted_slowdown(isolated, shared)
        result.rows.append(
            IsolationRow(
                workload=workload,
                isolated_ipc=sum(isolated) / len(isolated),
                slowdowns=slowdowns,
            )
        )
    return result
