"""One benchmark operation in a fresh process.

Run by ``run.py``, never by hand::

    python3 perfbench/op.py --workload stream-7to3 --seed 0 --mode timed

Modes: ``timed`` (untraced, pure backend), ``traced`` (spans around
every layer's entry points, sanitizer on), ``profile`` (cProfile,
grouped by layer) and ``c`` (compiled backend).  The last stdout line
is one JSON object; timestamps are ``time.monotonic()`` values, which
the parent compares with its own spawn time.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import probes
from benchspec import WORKLOADS, ZOO_MECHANISMS, operations, simulated_metrics, zoo_cells

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-out"

def class_specs(workload: str):
    from repro.experiments.common import ClassSpec
    from repro.experiments.mixes import chaser_mix
    from repro.workloads.stream import StreamWorkload

    if workload == "stream-7to3":
        return [
            ClassSpec(0, "stream-70", 7, 4, StreamWorkload, l3_ways=8),
            ClassSpec(1, "stream-30", 3, 4, StreamWorkload, l3_ways=8),
        ]
    if workload == "chaser-writes":
        return chaser_mix()
    if workload == "cache-resident":
        return [
            ClassSpec(
                0,
                "l3-stream",
                1,
                4,
                lambda: StreamWorkload(
                    working_set_bytes=48 << 10, stride_bytes=64, name="l3-stream"
                ),
                l3_ways=6,
            ),
            ClassSpec(1, "ddr-hi", 2, 2, StreamWorkload, l3_ways=5),
            ClassSpec(2, "ddr-lo", 1, 2, StreamWorkload, l3_ways=5),
        ]
    raise KeyError(workload)


def shape_errors(workload: str, sim: dict) -> list[str]:
    """The shape EXPERIMENTS.md states for the workload's source figure."""
    steady = sim["steady_bytes"]
    total = sum(steady.values())

    def share(qos: int, of: tuple[int, ...] | None = None) -> float:
        base = total if of is None else sum(steady.get(str(q), 0) for q in of)
        return steady.get(str(qos), 0) / base if base else 0.0

    if workload == "stream-7to3":
        checks = [("Fig. 5 hi share ~0.70", 0.68 <= share(0) <= 0.72, share(0))]
    elif workload == "chaser-writes":
        # above both halves (~0.42-0.43), below the 0.75 entitlement
        checks = [("Fig. 7 chaser PABST share", 0.48 <= share(0) <= 0.70, share(0))]
    elif workload == "cache-resident":
        split = share(1, of=(1, 2))
        checks = [
            ("Fig. 8 DDR split ~2:1", 0.637 <= split <= 0.697, split),
            ("Fig. 8 cached class ~0", share(0) < 0.02, share(0)),
        ]
    else:
        checks = [("arena PABST hi share ~0.75", 0.72 <= share(0) <= 0.78, share(0))]
    return [f"{name}: got {value:.4f}" for name, ok, value in checks if not ok]


def layout_for(workload: str):
    spec = WORKLOADS[workload]

    def layout(system):
        if workload == "zoo-readmix" and system.mechanism.name != "pabst":
            return None
        return spec.weights, spec.hi, spec.warmup_epochs

    return layout


def run_system_op(workload: str, seed: int, mode: str) -> None:
    """Build and run one PABST system (the three single-system workloads)."""
    from repro.core.pabst import PabstMechanism
    from repro.experiments.common import build_system, run_system

    spec = WORKLOADS[workload]
    system = build_system(
        class_specs(workload),
        mechanism=PabstMechanism(),
        seed=seed,
        sample_latencies=True,
        sanitize=mode == "traced",
    )
    run_system(system, epochs=spec.epochs, warmup_epochs=spec.warmup_epochs)


def run_zoo_op(seed: int, mode: str, cells: tuple[str, ...], out: dict) -> None:
    """Arena cells through the runner, then all again from its cache."""
    from repro.experiments.arena import merge_documents, validate_report
    from repro.experiments.common import sanitized
    from repro.mechanisms import ALL_MECHANISMS
    from repro.runner import ResultCache, RunSpec, run_specs

    if tuple(ALL_MECHANISMS) != ZOO_MECHANISMS:
        raise RuntimeError(f"mechanism registry changed: {ALL_MECHANISMS}")
    specs = [
        RunSpec(
            figure="arena",
            cell={"scenarios": ("readmix",), "mechanisms": (name,)},
            seed=seed,
            quick=True,
            backend="c" if mode == "c" else "pure",
        )
        for name in cells
    ]
    cache_dir = WORK_DIR / f"cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ResultCache(cache_dir)
    try:
        started = time.perf_counter()
        with sanitized(mode == "traced"):
            fresh = run_specs(specs, workers=1, cache=cache)
        sweep_s = time.perf_counter() - started
        started = time.perf_counter()
        cached = run_specs(specs, workers=1, cache=cache)
        cache_hit_s = time.perf_counter() - started
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    errors = out["errors"]
    for outcome in fresh:
        if not outcome.ok:
            out["failed"] += 1
            errors.append(f"{outcome.spec.label()}: {outcome.error}")
    if out["failed"]:
        return
    for before, after in zip(fresh, cached):
        if not after.cached or after.result["metrics"] != before.result["metrics"]:
            errors.append(f"{before.spec.label()}: cache hit differs from live run")
    document = merge_documents([outcome.result["metrics"] for outcome in fresh])
    validate_report(document)
    out["document"] = document
    out["runner"] = {
        "sweep_s": sweep_s,
        "cells_s": sum(outcome.result["wall_seconds"] for outcome in fresh),
        "cache_hit_s": cache_hit_s,
    }


def check_zoo_document(out: dict, sim: dict) -> None:
    """The probe's PABST summary must agree with the arena's own numbers."""
    cell = next(c for c in out["document"]["cells"] if c["mechanism"] == "pabst")
    mine = simulated_metrics(sim)
    theirs = {
        "alloc_error": cell["allocation_error"],
        "utilization": cell["utilization"],
        "hi_read_p50_cycles": cell["read_latency"]["0"]["p50"],
        "hi_read_p99_cycles": cell["read_latency"]["0"]["p99"],
    }
    for name, value in theirs.items():
        if round(mine[name], 6) != value:
            out["errors"].append(
                f"zoo: probe {name}={mine[name]!r} but arena reports {value!r}"
            )


def operate(workload: str, seed: int, mode: str, tiny: bool) -> dict:
    out: dict = {"operations": operations(workload, tiny), "failed": 0, "errors": []}

    from repro import accel
    from repro.runner import source_fingerprint

    started = time.perf_counter()
    source_fingerprint()
    out["fingerprint_s"] = time.perf_counter() - started

    tracer = probes.SpanTracer() if mode == "traced" else None
    probe = probes.SystemProbe(layout_for(workload), tracer)
    probe.install()
    if tracer is not None:
        probes.install_spans(tracer)
    if mode == "c":
        try:
            accel.resolve_backend("c")  # builds once, outside the timing
        except accel.AccelUnavailable as exc:
            out["accel_unavailable"] = str(exc).splitlines()[0]
            return out
    fastpath = accel.fastpath_stats()
    profiler = None
    if mode == "profile":
        profiler = cProfile.Profile()
        profiler.enable()
    if workload == "zoo-readmix":
        if tracer is not None:
            tracer.enter("runner:run_specs")
        run_zoo_op(seed, mode, zoo_cells(tiny), out)
        if tracer is not None:
            tracer.exit()
    elif mode == "c":
        with accel.backend("c"):
            run_system_op(workload, seed, mode)
    else:
        if accel.active_backend() != "pure":
            raise RuntimeError("timed runs must use the pure backend")
        run_system_op(workload, seed, mode)
    if profiler is not None:
        profiler.disable()
        out["layers"] = probes.profile_layers(pstats.Stats(profiler))
    if mode == "c":
        after = accel.fastpath_stats()
        out["fastpath"] = {
            key: after[key] - fastpath[key] for key in ("hits", "misses")
        }
    out["systems"] = [
        {key: value for key, value in s.items() if key != "sim"}
        for s in probe.summaries
    ]
    primary = [s["sim"] for s in probe.summaries if "sim" in s]
    if not out["failed"]:
        if len(primary) != 1:
            raise RuntimeError(f"expected one PABST system, saw {len(primary)}")
        sim = primary[0]
        out["sim"] = sim
        if workload == "zoo-readmix":
            check_zoo_document(out, sim)
        out["errors"].extend(shape_errors(workload, sim))
    if tracer is not None:
        out["spans"] = tracer.report()
    out["t_first"] = probe.first_cycle_at
    out["epoch_stamps"] = probe.epoch_stamps
    out["t_end"] = time.monotonic()
    if out["errors"] and not out["failed"]:
        out["failed"] = out["operations"]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("timed", "traced", "profile", "c")
    )
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    try:
        out = operate(args.workload, args.seed, args.mode, args.tiny)
    except Exception:  # noqa: BLE001 - the parent counts it as failed
        count = operations(args.workload, args.tiny)
        out = {"operations": count, "failed": count, "errors": [traceback.format_exc()]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
