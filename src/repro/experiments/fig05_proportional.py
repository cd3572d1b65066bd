"""Fig. 5 (Principle 1): proportional allocation.

Two classes of read streamers share the machine with a 7:3 allocation.
PABST should quickly find target rates that split bandwidth 70/30 and hold
them steady, with only small perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_series
from repro.analysis.timeline import BandwidthTimeline
from repro.core.pabst import PabstMechanism
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.workloads.stream import StreamWorkload

__all__ = ["Fig05Result", "run", "sweep_cells"]

HI_WEIGHT = 7
LO_WEIGHT = 3


@dataclass
class Fig05Result:
    timeline: BandwidthTimeline
    warmup_epochs: int
    hi_share: float
    lo_share: float
    utilization: float

    @property
    def target_hi_share(self) -> float:
        return HI_WEIGHT / (HI_WEIGHT + LO_WEIGHT)

    def report(self) -> str:
        lines = [
            "Fig. 5 - proportional allocation, two stream classes at 7:3",
            format_series("hi (70%)", self.timeline.utilization_series(0)),
            format_series("lo (30%)", self.timeline.utilization_series(1)),
            format_series("total", self.timeline.total_utilization_series()),
            f"steady hi share = {self.hi_share:.3f} (target {self.target_hi_share:.3f})",
            f"steady lo share = {self.lo_share:.3f}",
            f"steady utilization = {self.utilization:.3f} of peak",
        ]
        return "\n".join(lines)


def run(
    quick: bool = False,
    seed: int = 0,
    sanitize: bool | None = None,
    measure_epochs: int | None = None,
) -> Fig05Result:
    warmup = 25 if quick else 50
    if measure_epochs is None:
        measure_epochs = 35 if quick else 90
    epochs = warmup + measure_epochs
    cores_per_class = 4
    specs = [
        ClassSpec(
            qos_id=0,
            name="stream-70",
            weight=HI_WEIGHT,
            cores=cores_per_class,
            workload_factory=StreamWorkload,
            l3_ways=8,
        ),
        ClassSpec(
            qos_id=1,
            name="stream-30",
            weight=LO_WEIGHT,
            cores=cores_per_class,
            workload_factory=StreamWorkload,
            l3_ways=8,
        ),
    ]
    system = build_system(
        specs, mechanism=PabstMechanism(), seed=seed, sanitize=sanitize
    )
    result = run_system(system, epochs=epochs, warmup_epochs=warmup)
    return Fig05Result(
        timeline=result.timeline,
        warmup_epochs=warmup,
        hi_share=result.share(0),
        lo_share=result.share(1),
        utilization=result.total_utilization(),
    )


def sweep_cells(quick: bool = False) -> list[dict]:
    """Measurement-window sweep: convergence of the steady shares.

    Every cell runs the same classes, seed and warm-up length, differing
    only in how long the measured window runs.
    """
    lengths = range(10, 55, 5) if quick else range(30, 120, 10)
    return [{"measure_epochs": length} for length in lengths]
