"""Repository benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload stream-7to3 --seed 0 --seconds 20 --trace 0

Each operation runs in a fresh single-threaded child process
(``op.py``), one after another, until ``--seconds`` have passed and at
least the workload's minimum count has run.  ``--trace 0`` reports the
end-to-end metrics from these untraced, pure-backend children.
``--trace 1`` runs them too, then one traced child (spans, sanitizer
on), one cProfile child and one compiled-backend child at the first
child's seed, and reports the per-layer metrics; the span and layer
tables are also written to ``.perfbench-out/``.

Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import benchspec
from benchspec import END_TO_END, PER_LAYER, WORKLOADS, op_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Every child of a run must finish inside this many seconds in total.
RUN_BUDGET_S = 170.0
#: Timed children per run, at most.
MAX_OPS = 64


class Run:
    """Children launched so far, with the operation tally."""

    def __init__(self, workload: str, tiny: bool, budget_s: float) -> None:
        self.workload = workload
        self.tiny = tiny
        self.operations = benchspec.operations(workload, tiny)
        self.deadline = time.monotonic() + budget_s
        # a run's children take the CPUs in turn: another tenant loading
        # one CPU's core slows the children there for their whole life,
        # so the fastest segments need children on every CPU
        self.cpus = sorted(os.sched_getaffinity(0))
        self.launched = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def child(self, seed: int, mode: str) -> dict | None:
        """Run one ``op.py`` child; None (counted failed) if it broke."""
        env = {k: v for k, v in os.environ.items() if k != "REPRO_ACCEL"}
        env["PYTHONPATH"] = str(SOURCE)
        command = [
            sys.executable,
            str(HERE / "op.py"),
            "--workload",
            self.workload,
            "--seed",
            str(seed),
            "--mode",
            mode,
        ] + (["--tiny"] if self.tiny else [])
        timeout = max(1.0, self.deadline - time.monotonic())
        cpu = self.cpus[self.launched % len(self.cpus)]
        self.launched += 1
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=timeout,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            )
        except subprocess.TimeoutExpired:
            return self._broken(f"{mode} child timed out after {timeout:.0f}s")
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-3:]
            return self._broken(f"{mode} child exit {proc.returncode}: {tail}")
        out["spawned"] = spawned
        out["cpu"] = cpu
        self.attempted += out["operations"]
        self.failed += out["failed"]
        self.errors.extend(f"{mode} seed {seed}: {e}" for e in out["errors"])
        return None if out["failed"] else out

    def _broken(self, message: str) -> None:
        self.attempted += self.operations
        self.failed += self.operations
        self.errors.append(message)
        return None

    def mismatch(self, mode: str, expected: dict, got: dict) -> None:
        """Fail ``got`` unless its simulated results equal ``expected``'s."""
        for key in ("sim", "document"):
            if expected.get(key) != got.get(key):
                self.failed += got["operations"]
                self.errors.append(f"{mode}: simulated '{key}' differs from timed run")
                return


def run_timed(run: Run, seed: int, seconds: float, min_ops: int) -> list[dict]:
    """Timed children until ``seconds`` pass and ``min_ops`` have run."""
    started = time.monotonic()
    ops: list[dict] = []
    index = 0
    while index < min_ops or (
        time.monotonic() - started < seconds and index < MAX_OPS
    ):
        out = run.child(op_seed(seed, index), "timed")
        if out is not None:
            out["index"] = index
            ops.append(out)
        index += 1
    return ops


def sim_time(out: dict) -> float:
    """Host seconds the child spent inside ``System.run``."""
    return sum(system["run_s"] for system in out["systems"])


def fastest_segments(ops: list[dict]) -> list[float]:
    """Each child's timeline, cut at the same points, at its fastest.

    A child's timeline is cut at the first simulated cycle and at the
    end of every epoch, so segment *k* is the same work in every child
    of a workload.  Each segment's minimum over the children is the time
    that work takes when the shared host does not slow it; the host's
    short bursts rarely cover the same epoch in every child.
    """
    rows = []
    for o in ops:
        cuts = [o["spawned"], o["t_first"], *o["epoch_stamps"], o["t_end"]]
        rows.append([end - start for start, end in zip(cuts, cuts[1:])])
    if len({len(row) for row in rows}) != 1:
        raise RuntimeError("children closed different numbers of epochs")
    return [min(column) for column in zip(*rows)]


def end_to_end(ops: list[dict], pooled: dict) -> dict[str, float]:
    fastest = fastest_segments(ops)
    cycles = median(sum(s["cycles"] for s in o["systems"]) for o in ops)
    metrics = {
        "setup_s": median(o["t_first"] - o["spawned"] for o in ops),
        "wall_s": sum(fastest),
        "sim_kcycles_per_s": cycles / 1e3 / sum(fastest[1:]),
        "peak_rss_mb": median(o["rss_mb"] for o in ops),
    }
    metrics.update(benchspec.simulated_metrics(pooled))
    return metrics


def per_layer(
    run: Run, ops: list[dict], seed: int
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics: op 0's counts plus the traced/profile/c children."""
    first = ops[0]
    timed_s = median(sim_time(o) for o in ops)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(benchspec.count_metrics(benchspec.pool([first["sim"]])))
    metrics["engine.ns_per_event"] = median(
        sim_time(o) / sum(s["events"] for s in o["systems"]) * 1e9 for o in ops
    )
    metrics["runner.fingerprint_s"] = median(o["fingerprint_s"] for o in ops)
    for name in benchspec.ZOO_MECHANISMS:
        runs = [s["run_s"] for o in ops for s in o["systems"] if s["mechanism"] == name]
        if runs:
            metrics[f"mechanisms.{name}.run_s"] = median(runs)
    if "runner" in first:
        metrics["runner.overhead_s"] = median(
            o["runner"]["sweep_s"] - o["runner"]["cells_s"] for o in ops
        )
        metrics["runner.cache_hit_s"] = median(o["runner"]["cache_hit_s"] for o in ops)

    artifacts: dict = {}
    traced = run.child(seed, "traced")
    if traced is not None:
        run.mismatch("traced", first, traced)
        spans = traced["spans"]
        artifacts["spans"] = spans
        pabst = [s for s in traced["systems"] if s["mechanism"] == "pabst"]
        metrics["workloads.next_access_calls"] = pabst[0]["next_access_calls"]
        metrics["trace.overhead"] = sim_time(traced) / timed_s
    profiled = run.child(seed, "profile")
    if profiled is not None:
        run.mismatch("profile", first, profiled)
        artifacts["layers"] = profiled["layers"]
        for layer in benchspec.PROFILE_LAYERS:
            metrics[f"{layer}.self_s"] = profiled["layers"].get(layer, 0.0)
    compiled = run.child(seed, "c")
    if compiled is not None and "accel_unavailable" in compiled:
        # no toolchain: the accel metrics stay 0.0, which means absent
        artifacts["accel_unavailable"] = compiled["accel_unavailable"]
        print(f"note: compiled backend unavailable: {compiled['accel_unavailable']}")
    elif compiled is not None:
        run.mismatch("c", first, compiled)
        hits, misses = compiled["fastpath"]["hits"], compiled["fastpath"]["misses"]
        metrics["accel.speedup_vs_pure"] = timed_s / sim_time(compiled)
        metrics["accel.fastpath_hit_rate"] = hits / (hits + misses) if hits else 0.0
    return metrics, artifacts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="self-test size: one child per run; the zoo runs only none and pabst",
    )
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {SOURCE}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    sim_ops = 1 if args.tiny else spec.sim_ops
    run = Run(args.workload, args.tiny, RUN_BUDGET_S)
    ops = run_timed(run, args.seed, args.seconds, 1 if args.tiny else spec.min_ops)
    if not ops:
        for error in run.errors:
            print(f"perfbench: {error}", file=sys.stderr)
        print("perfbench: every operation failed; nothing to measure", file=sys.stderr)
        return 1
    # a failed child is counted in ``failed`` and left out of the pool
    pool_ops = [o for o in ops if o["index"] < sim_ops] or ops[:1]
    pooled = benchspec.pool([o["sim"] for o in pool_ops])
    if args.trace:
        metrics, artifacts = per_layer(run, ops, op_seed(args.seed, 0))
        table = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        artifact = OUT_DIR / f"{args.workload}-seed{args.seed}.json"
        artifacts["metrics"] = metrics
        artifact.write_text(json.dumps(artifacts, indent=2, sort_keys=True) + "\n")
    else:
        metrics, table = end_to_end(ops, pooled), END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  children {len(ops)}")
    walls = " ".join(f"{o['t_end'] - o['spawned']:.3f}@{o['cpu']}" for o in ops)
    print(f"  per-child wall_s@cpu: {walls}")
    for name, value in metrics.items():
        unit, better = table[name][:2]
        print(f"  {name:<32} {value:>14.6g} {unit:<12} ({better} is better)")
    samples = sum(pooled["hi_latency_hist"].values())
    print(f"  hi-class read latency samples pooled over {sim_ops} child(ren): {samples}")
    for error in run.errors:
        print(f"  FAILED {error}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": table[name][0]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
