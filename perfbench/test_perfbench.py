"""Self-test of the benchmark harness.

    python3 -m pytest perfbench -q

Runs every workload at a tiny size (``--tiny``: one child per run, the
zoo reduced to its ``none`` and ``pabst`` cells) at seed 0 and at the
held-out seed 1, untraced and traced.  Each run must pass its
correctness gate and emit every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import benchspec
import probes
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: spec.why for name, spec in benchspec.WORKLOADS.items()
    }
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    } == benchspec.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == benchspec.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [0, 1])  # 1 is held out from tuning
@pytest.mark.parametrize("workload", list(benchspec.WORKLOADS))
def test_every_metric_is_emitted(workload, seed, trace):
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    table = benchspec.PER_LAYER if trace else benchspec.END_TO_END
    assert list(result["metrics"]) == list(table)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name][0]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("stream-7to3", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_profile_layers_follow_the_package_tree():
    assert probes.layer_of("/x/src/repro/sim/engine.py") == "engine"
    assert probes.layer_of("/x/src/repro/sim/system.py") == "system"
    assert probes.layer_of("/x/src/repro/qos/monitor.py") == "core"
    assert probes.layer_of("/x/src/repro/baselines/none.py") == "mechanisms"
    assert probes.layer_of("/x/src/repro/runner/pool.py") == "other"
    assert probes.layer_of("/usr/lib/python3.11/heapq.py") is None


def test_fastest_segments_take_each_segments_minimum():
    def child(spawned, *cuts):
        return {
            "spawned": spawned,
            "t_first": cuts[0],
            "epoch_stamps": list(cuts[1:-1]),
            "t_end": cuts[-1],
        }

    slow_start = child(0.0, 0.5, 1.0, 1.2, 1.3)  # segments 0.5 0.5 0.2 0.1
    slow_end = child(10.0, 10.3, 10.6, 11.0, 11.5)  # segments 0.3 0.3 0.4 0.5
    assert run.fastest_segments([slow_start, slow_end]) == pytest.approx([0.3, 0.3, 0.2, 0.1])
    with pytest.raises(RuntimeError):
        run.fastest_segments([slow_start, child(0.0, 0.5, 1.0, 1.3)])

