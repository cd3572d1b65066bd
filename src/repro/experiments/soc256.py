"""256-core scale-out run on a single engine.

Not a paper figure — the paper's Table III machine tops out at 32 cores —
but the scaling scenario its epoch-based control loop is built for: a
256-core, 32-channel SoC where a single engine's event loop is the
simulation bottleneck.  Four bandwidth classes of pure streamers keep
the run memory-bound, so most simulated work lives on the memory
controllers.  ``repro run soc256`` prints its wall time at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_series
from repro.analysis.timeline import BandwidthTimeline
from repro.core.pabst import PabstMechanism
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.sim.config import SystemConfig
from repro.workloads.stream import StreamWorkload

__all__ = ["Soc256Result", "run", "sweep_cells"]

#: (name, weight, cores) per class; weights sum to 16 for round shares.
CLASSES = (
    ("plat", 8, 64),
    ("gold", 4, 64),
    ("silver", 3, 64),
    ("bronze", 1, 64),
)


@dataclass
class Soc256Result:
    timeline: BandwidthTimeline
    warmup_epochs: int
    shares: dict[int, float]
    utilization: float

    def report(self) -> str:
        total_weight = sum(weight for _, weight, _ in CLASSES)
        lines = ["soc256 - 256 cores / 32 MCs, four stream classes at 8:4:3:1"]
        for qos_id, (name, weight, _) in enumerate(CLASSES):
            lines.append(
                format_series(name, self.timeline.utilization_series(qos_id))
            )
        for qos_id, (name, weight, _) in enumerate(CLASSES):
            lines.append(
                f"steady {name} share = {self.shares[qos_id]:.3f} "
                f"(target {weight / total_weight:.3f})"
            )
        lines.append(f"steady utilization = {self.utilization:.3f} of peak")
        return "\n".join(lines)


def run(
    quick: bool = False,
    seed: int = 0,
    sanitize: bool | None = None,
) -> Soc256Result:
    warmup = 2 if quick else 5
    epochs = warmup + (4 if quick else 15)
    specs = [
        ClassSpec(
            qos_id=qos_id,
            name=name,
            weight=weight,
            cores=cores,
            workload_factory=StreamWorkload,
            l3_ways=4,
        )
        for qos_id, (name, weight, cores) in enumerate(CLASSES)
    ]
    system = build_system(
        specs,
        config=SystemConfig.soc_256core(),
        mechanism=PabstMechanism(),
        seed=seed,
        sanitize=sanitize,
    )
    result = run_system(system, epochs=epochs, warmup_epochs=warmup)
    return Soc256Result(
        timeline=result.timeline,
        warmup_epochs=warmup,
        shares={qos_id: result.share(qos_id) for qos_id in range(len(CLASSES))},
        utilization=result.total_utilization(),
    )


def sweep_cells(quick: bool = False) -> list[dict]:
    """A single cell: the run itself is the sweep-scale workload."""
    return [{}]
