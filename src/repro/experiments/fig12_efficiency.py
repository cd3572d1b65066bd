"""Fig. 12 (Section IV-F): what bandwidth QoS costs in memory efficiency.

Memory efficiency = data-bus busy cycles over cycles the controller had
pending work.  Running the Fig. 10 mix (SPEC class + streaming aggressor at
32:1) under {none, governor only, arbiter only, PABST} quantifies the two
loss sources the paper identifies: the governor intentionally drives
traffic below saturation while probing, and the arbiter constrains the
controller's pick order.  Efficiency without QoS should be high, and the
drop should be largest for latency-sensitive workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.mechanisms import make_mechanism
from repro.workloads.spec import SPEC_PROFILES, spec_workload
from repro.workloads.stream import StreamWorkload

__all__ = ["EfficiencyRow", "Fig12Result", "MECHANISM_ORDER", "default_workloads", "run", "sweep_cells"]

SPEC_WEIGHT = 32
STREAM_WEIGHT = 1
MECHANISM_ORDER = ("none", "source-only", "target-only", "pabst")


@dataclass(frozen=True)
class EfficiencyRow:
    workload: str
    efficiency: dict[str, float]
    spec_share: dict[str, float]


@dataclass
class Fig12Result:
    rows: list[EfficiencyRow] = field(default_factory=list)

    def mean_efficiency(self, mechanism: str) -> float:
        values = [row.efficiency[mechanism] for row in self.rows]
        return sum(values) / len(values) if values else 0.0

    def report(self) -> str:
        table = [
            (row.workload, *[row.efficiency[m] for m in MECHANISM_ORDER])
            for row in self.rows
        ]
        table.append(("MEAN", *[self.mean_efficiency(m) for m in MECHANISM_ORDER]))
        return format_table(
            ["workload", *MECHANISM_ORDER],
            table,
            title="Fig. 12 - memory efficiency (bus busy / controller active)",
        )


def default_workloads(quick: bool = False) -> tuple[str, ...]:
    """The workload set :func:`run` uses when none is given."""
    return ("libquantum", "mcf") if quick else tuple(sorted(SPEC_PROFILES))


def sweep_cells(quick: bool = False) -> list[dict]:
    """One independent cell per workload row."""
    return [{"workloads": (workload,)} for workload in default_workloads(quick)]


def run(
    workloads: tuple[str, ...] | None = None,
    quick: bool = False,
    seed: int = 0,
) -> Fig12Result:
    if workloads is None:
        workloads = default_workloads(quick)
    epochs = 50 if quick else 110
    result = Fig12Result()
    for workload in workloads:
        efficiency: dict[str, float] = {}
        spec_share: dict[str, float] = {}
        for mechanism in MECHANISM_ORDER:
            specs = [
                ClassSpec(
                    qos_id=0,
                    name=workload,
                    weight=SPEC_WEIGHT,
                    cores=4,
                    workload_factory=lambda: spec_workload(workload),
                    l3_ways=8,
                ),
                ClassSpec(
                    qos_id=1,
                    name="stream",
                    weight=STREAM_WEIGHT,
                    cores=4,
                    workload_factory=StreamWorkload,
                    l3_ways=8,
                ),
            ]
            system = build_system(
                specs, mechanism=make_mechanism(mechanism), seed=seed
            )
            run = run_system(system, epochs=epochs, warmup_epochs=epochs // 4)
            efficiency[mechanism] = system.stats.memory_efficiency()
            spec_share[mechanism] = run.share(0)
        result.rows.append(
            EfficiencyRow(
                workload=workload, efficiency=efficiency, spec_share=spec_share
            )
        )
    return result
