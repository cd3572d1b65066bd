"""Determinism-linter rule fixtures.

Each rule gets a deliberately-seeded bad fixture (must fire), a noqa'd
variant (must be suppressed), and where the rule is path-scoped, an
out-of-scope variant (must stay silent).  Fixtures are inline source
strings so linting the real ``tests/`` tree stays clean.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.devtools.lint import RULES, lint_source, main

SIM_PATH = "src/repro/sim/fake.py"        # inside repro, inside a timed layer
REPRO_PATH = "src/repro/analysis/fake.py"  # inside repro, outside timed layers
TEST_PATH = "tests/sim/fake_test.py"       # outside the repro package


def codes(source: str, path: str = SIM_PATH) -> list[str]:
    return [diag.code for diag in lint_source(source, path)]


class TestDet001BuiltinHash:
    def test_hash_fires(self):
        assert codes("seed = hash(name)\n") == ["DET001"]

    def test_id_fires(self):
        assert codes("key = id(obj)\n") == ["DET001"]

    def test_fires_outside_repro_too(self):
        assert codes("seed = hash(name)\n", TEST_PATH) == ["DET001"]

    def test_method_named_hash_ok(self):
        assert codes("digest = hasher.hash(name)\n") == []

    def test_noqa_suppresses(self):
        assert codes("seed = hash(name)  # repro: noqa[DET001]\n") == []


class TestDet002AmbientRandomness:
    def test_import_random_fires(self):
        assert codes("import random\n") == ["DET002"]

    def test_from_random_fires(self):
        assert codes("from random import choice\n") == ["DET002"]

    def test_np_seed_fires(self):
        assert codes("np.random.seed(0)\n") == ["DET002"]

    def test_unseeded_default_rng_fires(self):
        assert codes("g = np.random.default_rng()\n") == ["DET002"]

    def test_seeded_default_rng_ok(self):
        assert codes("g = np.random.default_rng(1234)\n") == []

    def test_global_helper_fires(self):
        assert codes("x = np.random.randint(0, 10)\n") == ["DET002"]

    def test_randomstate_fires(self):
        assert codes("rs = np.random.RandomState(0)\n") == ["DET002"]

    def test_constructors_ok(self):
        source = (
            "seq = np.random.SeedSequence(entropy=0)\n"
            "gen = np.random.Generator(np.random.PCG64(seq))\n"
        )
        assert codes(source) == []

    def test_scoped_to_repro_package(self):
        assert codes("import random\n", TEST_PATH) == []

    def test_noqa_suppresses(self):
        assert codes("import random  # repro: noqa[DET002]\n") == []


class TestDet003WallClock:
    def test_time_time_fires(self):
        assert codes("t = time.time()\n") == ["DET003"]

    def test_perf_counter_fires(self):
        assert codes("t = time.perf_counter()\n") == ["DET003"]

    def test_datetime_now_fires(self):
        assert codes("t = datetime.now()\n") == ["DET003"]

    def test_from_import_fires(self):
        assert codes("from time import perf_counter\n") == ["DET003"]

    def test_scoped_to_timed_layers(self):
        assert codes("t = time.time()\n", REPRO_PATH) == []
        assert codes("t = time.time()\n", TEST_PATH) == []

    def test_time_sleep_ok(self):
        assert codes("time.sleep(1)\n") == []

    def test_noqa_suppresses(self):
        assert codes("t = time.time()  # repro: noqa[DET003]\n") == []


class TestDet004FloatCycleArithmetic:
    def test_division_on_when_fires(self):
        assert codes("half = when / 2\n") == ["DET004"]

    def test_division_on_deadline_attr_fires(self):
        assert codes("x = req.virtual_deadline / stride\n") == ["DET004"]

    def test_division_on_timestamp_suffix_fires(self):
        assert codes("lat = (req.completed_at - req.created_at) / 2\n") != []

    def test_floor_division_ok(self):
        assert codes("half = when // 2\n") == []

    def test_unrelated_division_ok(self):
        assert codes("ratio = bytes_total / cycles\n") == []

    def test_rate_division_by_time_ok(self):
        assert codes("bw = stats.total_bytes() / engine.now\n") == []

    def test_call_of_timestamp_ok(self):
        assert codes("x = stats.ipc(0, engine.now) / cores\n") == []

    def test_noqa_suppresses(self):
        assert codes("half = when / 2  # repro: noqa[DET004]\n") == []


class TestDet005BareSetIteration:
    def test_for_over_set_literal_fires(self):
        assert codes("for x in {1, 2, 3}:\n    pass\n") == ["DET005"]

    def test_comprehension_over_setcomp_fires(self):
        assert codes("ys = [y for y in {x for x in xs}]\n") == ["DET005"]

    def test_sorted_set_ok(self):
        assert codes("for x in sorted({3, 1, 2}):\n    pass\n") == []

    def test_membership_test_ok(self):
        assert codes("ok = x in {1, 2, 3}\n") == []

    def test_noqa_suppresses(self):
        source = "for x in {1, 2}:  # repro: noqa[DET005]\n    pass\n"
        assert codes(source) == []


class TestSim001ScheduleDelay:
    def test_float_literal_fires(self):
        assert codes("engine.schedule(0.5, cb)\n") == ["SIM001"]

    def test_true_division_fires(self):
        assert codes("engine.schedule(total / 2, cb)\n") == ["SIM001"]

    def test_float_cast_fires(self):
        assert codes("engine.schedule_at(float(when), cb)\n") == ["SIM001"]

    def test_int_expression_ok(self):
        assert codes("engine.schedule(2 * latency + 1, cb)\n") == []

    def test_floor_division_ok(self):
        assert codes("engine.schedule(total // 2, cb)\n") == []

    def test_keyword_delay_checked(self):
        assert codes("engine.schedule(delay=0.5, callback=cb)\n") == ["SIM001"]

    def test_noqa_suppresses(self):
        assert codes("engine.schedule(0.5, cb)  # repro: noqa[SIM001]\n") == []


class TestPerf001NetworkxConfinement:
    def test_import_in_sim_module_fires(self):
        assert codes("import networkx as nx\n") == ["PERF001"]

    def test_from_import_fires(self):
        assert codes("from networkx import grid_2d_graph\n") == ["PERF001"]

    def test_submodule_import_fires(self):
        assert codes(
            "import networkx.algorithms\n", REPRO_PATH
        ) == ["PERF001"]

    def test_topology_module_is_flagged(self):
        """No carve-out: the mesh's hop distances have a closed form."""
        assert codes(
            "import networkx as nx\n", "src/repro/sim/topology.py"
        ) == ["PERF001"]

    def test_tests_are_out_of_scope(self):
        assert codes("import networkx as nx\n", TEST_PATH) == []

    def test_unrelated_import_ok(self):
        assert codes("import bisect\n") == []

    def test_noqa_suppresses(self):
        assert codes(
            "import networkx as nx  # repro: noqa[PERF001]\n"
        ) == []


class TestPerf001NumpyConfinement:
    def test_import_fires(self):
        assert codes("import numpy as np\n") == ["PERF001"]

    def test_from_import_fires(self):
        assert codes("from numpy.random import Generator\n", REPRO_PATH) == ["PERF001"]

    def test_submodule_import_fires(self):
        assert codes("import numpy.random\n", REPRO_PATH) == ["PERF001"]

    def test_message_names_the_replacement(self):
        (diag,) = lint_source("import numpy as np\n", SIM_PATH)
        assert "repro.sim.rng" in diag.message

    def test_tests_are_out_of_scope(self):
        """Tests keep numpy as the parity oracle of repro.sim.rng."""
        assert codes("import numpy as np\n", TEST_PATH) == []

    def test_lookalike_and_relative_imports_ok(self):
        assert codes("import numpyish\nfrom .numpy import x\n") == []


class TestPerf002HeapqConfinement:
    def test_import_in_sim_module_fires(self):
        assert codes("import heapq\n") == ["PERF002"]

    def test_from_import_fires(self):
        assert codes("from heapq import heappush\n") == ["PERF002"]

    def test_import_elsewhere_in_repro_fires(self):
        assert codes("import heapq\n", REPRO_PATH) == ["PERF002"]

    def test_engine_module_is_allowed(self):
        assert codes("import heapq\n", "src/repro/sim/engine.py") == []

    def test_tests_are_out_of_scope(self):
        assert codes("import heapq\n", TEST_PATH) == []

    def test_unrelated_import_ok(self):
        assert codes("import bisect\n") == []

    def test_noqa_suppresses(self):
        assert codes("import heapq  # repro: noqa[PERF002]\n") == []


class TestPerf003SerializationConfinement:
    def test_pickle_import_in_sim_module_fires(self):
        assert codes("import pickle\n") == ["PERF003"]

    def test_from_import_fires(self):
        assert codes("from pickle import dumps\n") == ["PERF003"]

    def test_other_serializers_fire(self):
        assert codes("import marshal\n", REPRO_PATH) == ["PERF003"]
        assert codes("import shelve\n", REPRO_PATH) == ["PERF003"]
        assert codes("import dill\n", REPRO_PATH) == ["PERF003"]

    def test_no_module_is_allowed(self):
        for path in ("src/repro/runner/checkpoint.py", "src/repro/runner/cache.py"):
            assert codes("import pickle\n", path) == ["PERF003"]

    def test_other_runner_modules_fire(self):
        assert codes(
            "import pickle\n", "src/repro/runner/pool.py"
        ) == ["PERF003"]

    def test_tests_are_out_of_scope(self):
        assert codes("import pickle\n", TEST_PATH) == []

    def test_json_is_exempt(self):
        assert codes("import json\n", REPRO_PATH) == []

    def test_noqa_suppresses(self):
        assert codes("import pickle  # repro: noqa[PERF003]\n") == []


class TestPerf004ProcessParallelismConfinement:
    def test_import_in_sim_module_fires(self):
        assert codes("import multiprocessing\n") == ["PERF004"]

    def test_from_import_fires(self):
        assert codes("from multiprocessing import Pipe\n") == ["PERF004"]

    def test_concurrent_futures_fires(self):
        assert codes("import concurrent.futures\n", REPRO_PATH) == ["PERF004"]
        assert codes(
            "from concurrent.futures import ProcessPoolExecutor\n", REPRO_PATH
        ) == ["PERF004"]
        assert codes(
            "from concurrent import futures\n", REPRO_PATH
        ) == ["PERF004"]

    def test_submodule_import_fires(self):
        assert codes(
            "from multiprocessing.connection import Connection\n", REPRO_PATH
        ) == ["PERF004"]

    def test_runner_modules_are_allowed(self):
        assert codes(
            "import multiprocessing\n", "src/repro/runner/worker.py"
        ) == []
        assert codes(
            "from concurrent.futures import ProcessPoolExecutor\n",
            "src/repro/runner/pool.py",
        ) == []

    def test_no_sim_module_is_allowed(self):
        for path in ("src/repro/sim/shard.py", "src/repro/sim/system.py"):
            assert codes("import multiprocessing\n", path) == ["PERF004"]

    def test_tests_are_out_of_scope(self):
        assert codes("import multiprocessing\n", TEST_PATH) == []

    def test_unrelated_concurrent_name_ok(self):
        assert codes("from concurrent import interpreters\n", REPRO_PATH) == []

    def test_noqa_suppresses(self):
        assert codes(
            "import multiprocessing  # repro: noqa[PERF004]\n"
        ) == []


class TestPerf005NativeCodeConfinement:
    def test_ctypes_import_in_sim_module_fires(self):
        assert codes("import ctypes\n") == ["PERF005"]

    def test_from_import_fires(self):
        assert codes("from ctypes import CDLL\n", REPRO_PATH) == ["PERF005"]

    def test_machinery_fires(self):
        assert codes("import importlib.machinery\n", REPRO_PATH) == ["PERF005"]
        assert codes(
            "from importlib.machinery import ExtensionFileLoader\n", REPRO_PATH
        ) == ["PERF005"]
        assert codes(
            "from importlib import machinery\n", REPRO_PATH
        ) == ["PERF005"]

    def test_plain_importlib_is_fine(self):
        assert codes("import importlib\n", REPRO_PATH) == []
        assert codes("from importlib import import_module\n", REPRO_PATH) == []

    def test_accel_modules_are_allowed(self):
        assert codes("import ctypes\n", "src/repro/accel/build.py") == []
        assert codes(
            "from importlib.machinery import ExtensionFileLoader\n",
            "src/repro/accel/build.py",
        ) == []

    def test_tests_are_out_of_scope(self):
        assert codes("import ctypes\n", TEST_PATH) == []

    def test_noqa_suppresses(self):
        assert codes("import ctypes  # repro: noqa[PERF005]\n") == []


class TestNoqaForms:
    def test_bare_noqa_suppresses_everything(self):
        assert codes("seed = hash(when / 2)  # repro: noqa\n") == []

    def test_multi_code_list(self):
        source = "seed = hash(when / 2)  # repro: noqa[DET001, DET004]\n"
        assert codes(source) == []

    def test_wrong_code_keeps_finding(self):
        assert codes("seed = hash(x)  # repro: noqa[DET005]\n") == ["DET001"]


class TestDriver:
    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def broken(:\n", SIM_PATH)
        assert [d.code for d in diags] == ["E999"]

    def test_diagnostic_format_is_clickable(self):
        diag = lint_source("seed = hash(x)\n", SIM_PATH)[0]
        assert diag.format().startswith(f"{SIM_PATH}:1:")
        assert "DET001" in diag.format()

    def test_registry_covers_documented_rules(self):
        assert set(RULES) == {
            "DET001", "DET002", "DET003", "DET004", "DET005", "SIM001",
            "PERF001", "PERF002", "PERF003", "PERF004", "PERF005",
        }

    def test_main_exit_codes(self, tmp_path: Path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("seed = hash(x)\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_module_entry_point(self):
        """``python -m repro.devtools.lint`` must work (and not warn)."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "DET001" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
