"""Fig. 9 (Section IV-D): memcached service times under co-location.

A single memcached server thread (high priority, 20:1 share) is co-located
with streaming aggressors.  Without QoS the stream's queue pressure inflates
both the mean and the tail of transaction service times; PABST should bring
the whole distribution back near the isolated run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import percentile
from repro.analysis.report import format_table
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.mechanisms import make_mechanism
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.stream import StreamWorkload

__all__ = ["Fig09Result", "SCENARIOS", "ServiceTimeSummary", "run", "sweep_cells"]

MEMCACHED_WEIGHT = 20
STREAM_WEIGHT = 1


@dataclass(frozen=True)
class ServiceTimeSummary:
    """Distribution of transaction service times for one configuration."""

    config: str
    transactions: int
    mean: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_samples(cls, config: str, samples: list[int]) -> "ServiceTimeSummary":
        mean = sum(samples) / len(samples) if samples else 0.0
        return cls(
            config=config,
            transactions=len(samples),
            mean=mean,
            p50=percentile(samples, 50),
            p95=percentile(samples, 95),
            p99=percentile(samples, 99),
        )


@dataclass
class Fig09Result:
    isolated: ServiceTimeSummary | None = None
    baseline: ServiceTimeSummary | None = None
    pabst: ServiceTimeSummary | None = None

    def degradation(self, summary: ServiceTimeSummary) -> float:
        """Mean service time relative to the isolated run."""
        if self.isolated is None or self.isolated.mean == 0:
            return 0.0
        return summary.mean / self.isolated.mean

    def report(self) -> str:
        rows = [
            (s.config, s.transactions, s.mean, s.p50, s.p95, s.p99,
             self.degradation(s))
            for s in (self.isolated, self.baseline, self.pabst)
            if s is not None
        ]
        return format_table(
            ["config", "txns", "mean", "p50", "p95", "p99", "vs isolated"],
            rows,
            title="Fig. 9 - memcached transaction service times (cycles), 20:1 share",
        )


def _specs(with_aggressor: bool, memcached: MemcachedWorkload) -> list[ClassSpec]:
    specs = [
        ClassSpec(
            qos_id=0,
            name="memcached",
            weight=MEMCACHED_WEIGHT,
            cores=1,
            workload_factory=lambda: memcached,
            l3_ways=8,
        )
    ]
    if with_aggressor:
        specs.append(
            ClassSpec(
                qos_id=1,
                name="stream",
                weight=STREAM_WEIGHT,
                cores=4,
                workload_factory=StreamWorkload,
                l3_ways=8,
            )
        )
    return specs


def _run_one(
    config_name: str,
    mechanism_name: str | None,
    with_aggressor: bool,
    epochs: int,
    seed: int,
) -> ServiceTimeSummary:
    memcached = MemcachedWorkload(transactions=None, warmup_transactions=50)
    mechanism = make_mechanism(mechanism_name) if mechanism_name else None
    system = build_system(
        _specs(with_aggressor, memcached), mechanism=mechanism, seed=seed
    )
    run_system(system, epochs=epochs, warmup_epochs=1)
    return ServiceTimeSummary.from_samples(config_name, memcached.service_times)


#: scenario name -> (result field, report label, mechanism, with_aggressor)
SCENARIOS: dict[str, tuple[str, str | None, bool]] = {
    "isolated": ("isolated", None, False),
    "baseline": ("none + stream", "none", True),
    "pabst": ("pabst + stream", "pabst", True),
}


def sweep_cells(quick: bool = False) -> list[dict]:
    """One cell per co-location scenario."""
    return [{"scenarios": (name,)} for name in SCENARIOS]


def run(
    quick: bool = False,
    seed: int = 0,
    scenarios: tuple[str, ...] = ("isolated", "baseline", "pabst"),
) -> Fig09Result:
    epochs = 80 if quick else 250
    result = Fig09Result()
    for name in scenarios:
        label, mechanism, with_aggressor = SCENARIOS[name]
        summary = _run_one(label, mechanism, with_aggressor, epochs, seed)
        setattr(result, name, summary)
    return result
