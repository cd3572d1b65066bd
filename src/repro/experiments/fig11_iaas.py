"""Fig. 11 (Section IV-E): work-conserving fairness in an IaaS setting.

Four equal-priority classes (25% each) run the same SPEC workload on a
consolidated machine under PABST.  The baseline approximates a *static*
25% bandwidth reservation: the same class running alone with DRAM clocked
four times slower.  Because PABST is work conserving — classes rarely all
demand their full share at once — every workload should run 15-90% faster
than under the static split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.baselines.static_partition import StaticPartitionMechanism
from repro.core.pabst import PabstMechanism
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.sim.config import SystemConfig
from repro.workloads.spec import SPEC_PROFILES, spec_workload

__all__ = ["Fig11Result", "IaasRow", "default_workloads", "run", "sweep_cells"]

NUM_CLASSES = 4
CORES_PER_CLASS = 2
SHARE_DIVISOR = 4


@dataclass(frozen=True)
class IaasRow:
    workload: str
    static_ipc: float
    pabst_ipc: float

    @property
    def speedup(self) -> float:
        if self.static_ipc <= 0:
            return 0.0
        return self.pabst_ipc / self.static_ipc

    @property
    def improvement_pct(self) -> float:
        return (self.speedup - 1.0) * 100.0


@dataclass
class Fig11Result:
    rows: list[IaasRow] = field(default_factory=list)

    def report(self) -> str:
        table = [
            (row.workload, row.static_ipc, row.pabst_ipc, row.speedup,
             f"{row.improvement_pct:+.0f}%")
            for row in self.rows
        ]
        return format_table(
            ["workload", "static-1/4 IPC", "pabst IPC", "speedup", "improvement"],
            table,
            title=(
                "Fig. 11 - consolidated equal shares (PABST) vs static 1/4 "
                "bandwidth partition"
            ),
        )


def _static_ipc(workload: str, epochs: int, seed: int) -> float:
    """One class alone on a machine with DRAM slowed 4x (per-core IPC)."""
    config = SystemConfig.default_experiment(cores=CORES_PER_CLASS, num_mcs=2)
    specs = [
        ClassSpec(
            qos_id=0,
            name=workload,
            weight=1,
            cores=CORES_PER_CLASS,
            workload_factory=lambda: spec_workload(workload),
        )
    ]
    system = build_system(
        specs,
        config=config,
        mechanism=StaticPartitionMechanism(share_divisor=SHARE_DIVISOR),
        seed=seed,
    )
    run_system(system, epochs=epochs, warmup_epochs=1)
    return system.stats.ipc(0, system.engine.now) / CORES_PER_CLASS


def _pabst_ipc(workload: str, epochs: int, seed: int) -> float:
    """Four equal classes of the same workload under PABST (per-core IPC)."""
    ways_each = 4
    specs = [
        ClassSpec(
            qos_id=class_id,
            name=f"{workload}.{class_id}",
            weight=1,
            cores=CORES_PER_CLASS,
            workload_factory=lambda: spec_workload(workload),
            l3_ways=ways_each,
        )
        for class_id in range(NUM_CLASSES)
    ]
    system = build_system(specs, mechanism=PabstMechanism(), seed=seed)
    run_system(system, epochs=epochs, warmup_epochs=1)
    per_class = [
        system.stats.ipc(class_id, system.engine.now) / CORES_PER_CLASS
        for class_id in range(NUM_CLASSES)
    ]
    return sum(per_class) / len(per_class)


def default_workloads(quick: bool = False) -> tuple[str, ...]:
    """The workload set :func:`run` uses when none is given."""
    return ("mcf", "milc") if quick else tuple(sorted(SPEC_PROFILES))


def sweep_cells(quick: bool = False) -> list[dict]:
    """One independent cell per workload row."""
    return [{"workloads": (workload,)} for workload in default_workloads(quick)]


def run(
    workloads: tuple[str, ...] | None = None,
    quick: bool = False,
    seed: int = 0,
) -> Fig11Result:
    if workloads is None:
        workloads = default_workloads(quick)
    epochs = 50 if quick else 110
    result = Fig11Result()
    for workload in workloads:
        result.rows.append(
            IaasRow(
                workload=workload,
                static_ipc=_static_ipc(workload, epochs, seed),
                pabst_ipc=_pabst_ipc(workload, epochs, seed),
            )
        )
    return result
