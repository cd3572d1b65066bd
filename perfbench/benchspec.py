"""What the benchmark measures: workloads, metric tables, and pooling.

Pure Python with no simulator import, so the harness parent can fail
fast (and the self-test can read the tables) without the ``repro``
package on the path.  ``op.py`` produces per-operation payloads; the
functions here pool them into the reported metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: QoS class -> weight, over the classes ``alloc_error`` compares.
    weights: dict[int, int]
    #: The high-priority class whose read latencies are reported.
    hi: int
    warmup_epochs: int
    epochs: int
    #: Child processes whose simulated statistics are pooled into the
    #: simulated metrics (each runs its own derived seed).
    sim_ops: int
    #: Fewest timed child processes per run, whatever ``--seconds`` says.
    min_ops: int


# Sizes are the figures' quick lengths (fig05, fig08, the arena), except
# the chaser's longer steady window: its traffic is the only one that
# depends on the seed, and fig07 quick's 35 measured epochs spread too
# widely from seed to seed.
WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "stream-7to3",
            "Fig. 5 read streams at 7:3 under PABST: saturated controllers, "
            "engine, DRAM, cache fills and pacer do most of the work",
            weights={0: 7, 1: 3},
            hi=0,
            warmup_epochs=25,
            epochs=60,
            sim_ops=1,
            min_ops=3,
        ),
        WorkloadSpec(
            "chaser-writes",
            "Fig. 7 chaser mix at 3:1 under PABST: latency-bound random "
            "chases against a write streamer; dirty evictions and write drain",
            weights={0: 3, 1: 1},
            hi=0,
            warmup_epochs=25,
            epochs=80,
            sim_ops=8,
            min_ops=8,
        ),
        WorkloadSpec(
            "cache-resident",
            "Fig. 8 excess redistribution, cache-resident class on 4 cores: "
            "the inlined L2-hit path, core model and generators dominate",
            weights={1: 2, 2: 1},
            hi=1,
            warmup_epochs=30,
            epochs=70,
            sim_ops=1,
            min_ops=3,
        ),
        WorkloadSpec(
            "zoo-readmix",
            "arena readmix over all 8 mechanisms via run_specs with a fresh "
            "result cache, then again from the cache: arena wall time",
            weights={0: 3, 1: 1},
            hi=0,
            warmup_epochs=15,  # the arena's quick warm-up (40 epochs in all)
            epochs=40,
            sim_ops=1,
            min_ops=3,
        ),
    )
}

#: The eight arena mechanisms, in registry order (checked against
#: ``repro.mechanisms.ALL_MECHANISMS`` by the zoo operation).
ZOO_MECHANISMS = (
    "none",
    "static-partition",
    "source-only",
    "target-only",
    "pabst",
    "dpq",
    "perbank",
    "lms-ar",
)


def zoo_cells(tiny: bool) -> tuple[str, ...]:
    """Mechanisms one ``zoo-readmix`` child runs (two at self-test size)."""
    return ("none", "pabst") if tiny else ZOO_MECHANISMS


def operations(workload: str, tiny: bool) -> int:
    """Built-and-run systems in one child of ``workload``."""
    return len(zoo_cells(tiny)) if workload == "zoo-readmix" else 1


def op_seed(seed: int, index: int) -> int:
    """Simulator seed of the ``index``-th child of a run at ``seed``."""
    return (seed << 8) | index


# ----------------------------------------------------------------------
# metric tables (must match BENCHMARK.json; the self-test checks)
# ----------------------------------------------------------------------

#: name -> (unit, better, bound)
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "sim_kcycles_per_s": ("kcycles/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "alloc_error": ("ratio", "lower", 0.25),
    "utilization": ("fraction", "higher", 0.1),
    "hi_read_p50_cycles": ("cycles", "lower", 0.15),
    "hi_read_p99_cycles": ("cycles", "lower", 0.15),
}

#: Layers whose cProfile self time is reported as ``<layer>.self_s``.
PROFILE_LAYERS = (
    "engine",
    "system",
    "topology",
    "cpu",
    "workloads",
    "cache",
    "dram",
    "core",
    "mechanisms",
    "stats",
    "other",
)

#: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "engine.events": ("count", "lower"),
    "engine.ns_per_event": ("ns", "lower"),
    "system.mc_backlog_mean": ("requests", "lower"),
    "cpu.accesses": ("count", "higher"),
    "cpu.hi_reads": ("count", "higher"),
    "cpu.hi_ipc": ("instr/cycle", "higher"),
    "workloads.next_access_calls": ("count", "higher"),
    "cache.l2_hit_rate": ("fraction", "higher"),
    "cache.l3_hit_rate": ("fraction", "higher"),
    "cache.fills": ("count", "lower"),
    "cache.dirty_writebacks": ("count", "lower"),
    "dram.reads_accepted": ("count", "higher"),
    "dram.writes_accepted": ("count", "higher"),
    "dram.rejects": ("count", "lower"),
    "dram.reject_ratio": ("fraction", "lower"),
    "dram.bus_efficiency": ("fraction", "higher"),
    "dram.read_queue_occupancy": ("requests", "lower"),
    "pabst.releases_granted": ("count", "higher"),
    "pabst.releases_denied": ("count", "lower"),
    "pabst.uncharges": ("count", "lower"),
    "pabst.writeback_charges": ("count", "lower"),
    "pabst.direction_flips": ("count", "lower"),
    "pabst.sat_fraction": ("fraction", "lower"),
    "pabst.deadline_inversions": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in PROFILE_LAYERS},
    **{f"mechanisms.{name}.run_s": ("s", "lower") for name in ZOO_MECHANISMS},
    "runner.fingerprint_s": ("s", "lower"),
    "runner.overhead_s": ("s", "lower"),
    "runner.cache_hit_s": ("s", "lower"),
    "accel.speedup_vs_pure": ("ratio", "higher"),
    "accel.fastpath_hit_rate": ("fraction", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


# ----------------------------------------------------------------------
# pooling
# ----------------------------------------------------------------------


def percentile(samples: list[int], q: float) -> float:
    """Linear-interpolation percentile (``repro.analysis.metrics`` rule)."""
    n = len(samples)
    if n == 0:
        return 0.0
    ordered = sorted(samples)
    rank = (q / 100.0) * (n - 1)
    lower = int(rank)
    if lower >= n - 1:
        return float(ordered[-1])
    fraction = rank - lower
    return ordered[lower] + (ordered[lower + 1] - ordered[lower]) * fraction


def expand_histogram(hist: dict[str, int]) -> list[int]:
    samples: list[int] = []
    for value, count in hist.items():
        samples.extend([int(value)] * count)
    return samples


def add_into(total: dict, part: dict) -> dict:
    """Sum ``part`` into ``total`` key by key (nested dicts recurse)."""
    for key, value in part.items():
        if isinstance(value, dict):
            add_into(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def pool(sims: list[dict]) -> dict:
    """Sum the additive fields of several operations' simulated payloads."""
    pooled: dict = {}
    for sim in sims:
        add_into(pooled, {key: sim[key] for key in ADDITIVE})
    pooled["weights"] = sims[0]["weights"]
    pooled["peak_bandwidth"] = sims[0]["peak_bandwidth"]
    return pooled


#: Payload fields that add across operations.
ADDITIVE = ("steady_bytes", "steady_cycles", "hi_latency_hist", "cycles", "counts")


def simulated_metrics(pooled: dict) -> dict[str, float]:
    """The four simulated end-to-end metrics from a pooled payload."""
    weights = {qos: float(w) for qos, w in pooled["weights"].items()}
    steady = pooled["steady_bytes"]
    counted = {qos: steady.get(qos, 0) for qos in weights}
    total = sum(counted.values())
    total_weight = sum(weights.values())
    error = 0.0
    for qos, weight in weights.items():
        entitled = weight / total_weight
        share = counted[qos] / total if total else 0.0
        error = max(error, abs(share - entitled) / entitled)
    utilization = (
        sum(steady.values()) / pooled["steady_cycles"] / pooled["peak_bandwidth"]
    )
    latencies = expand_histogram(pooled["hi_latency_hist"])
    return {
        "alloc_error": error,
        "utilization": utilization,
        "hi_read_p50_cycles": percentile(latencies, 50.0),
        "hi_read_p99_cycles": percentile(latencies, 99.0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(pooled: dict) -> dict[str, float]:
    """Per-layer simulated counts and rates from a pooled payload."""
    c = pooled["counts"]
    return {
        "engine.events": c["events"],
        "system.mc_backlog_mean": _ratio(c["backlog_sum"], c["backlog_samples"]),
        "cpu.accesses": c["accesses"],
        "cpu.hi_reads": sum(pooled["hi_latency_hist"].values()),
        "cpu.hi_ipc": _ratio(c["hi_instructions"], pooled["cycles"]),
        "cache.l2_hit_rate": _ratio(c["l2_hits"], c["l2_hits"] + c["l2_misses"]),
        "cache.l3_hit_rate": _ratio(c["l3_hits"], c["l3_hits"] + c["l3_misses"]),
        "cache.fills": c["l2_misses"] + c["l3_misses"],
        "cache.dirty_writebacks": c["l3_dirty_evictions"],
        "dram.reads_accepted": c["reads_accepted"],
        "dram.writes_accepted": c["writes_accepted"],
        "dram.rejects": c["rejects"],
        "dram.reject_ratio": _ratio(
            c["rejects"], c["reads_accepted"] + c["writes_accepted"] + c["rejects"]
        ),
        "dram.bus_efficiency": _ratio(c["bus_busy_cycles"], c["mc_active_cycles"]),
        "dram.read_queue_occupancy": _ratio(c["queue_sum"], c["backlog_samples"]),
        "pabst.releases_granted": c["releases_granted"],
        "pabst.releases_denied": c["releases_denied"],
        "pabst.uncharges": c["uncharges"],
        "pabst.writeback_charges": c["writeback_charges"],
        "pabst.direction_flips": c["direction_flips"],
        "pabst.sat_fraction": _ratio(c["sat_epochs"], c["epochs"]),
        "pabst.deadline_inversions": c["deadline_inversions"],
    }
