"""Cold-start guards: what a process imports before its first cycle.

Package ``__init__`` modules re-export lazily (``repro._lazy``), so a run
imports only the modules it executes.  These properties keep that true:

* every ``repro`` module imports cleanly when it is the *first* one a
  fresh interpreter loads — lazy packages no longer fix a global import
  order, so a latent cycle shows up as an ``ImportError`` here;
* building and running a plain PABST system loads no numpy, no graph
  library, no process pool, no sanitizer or tracer, and no figure
  module — and nothing at all once simulated time is
  running;
* chaser and SPEC-proxy runs, which draw ``integers`` and ``geometric``
  from :mod:`repro.sim.rng`, load no numpy either, and the ziggurat tables
  (:mod:`repro.sim._ziggurat`) load only once an inversion-path
  ``geometric`` draw runs;
* hashing a :class:`~repro.runner.spec.RunSpec` (every cache lookup does
  it) loads no simulator module.

Each test runs in its own subprocess so the host interpreter's
``sys.modules`` cannot mask a missing import.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_module_imports_first():
    out = run_fresh(
        """
        import importlib, json, pkgutil, sys
        import repro

        names = sorted(
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")
        )
        failures = {}
        for name in names:
            for key in [k for k in sys.modules if k == "repro" or k.startswith("repro.")]:
                del sys.modules[key]
            try:
                importlib.import_module(name)
            except Exception as exc:
                failures[name] = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"checked": len(names), "failures": failures}))
        """
    )
    assert out["checked"] > 80
    assert out["failures"] == {}


FORBIDDEN_PREFIXES = (
    "numpy",
    "networkx",
    "concurrent.futures",
    "multiprocessing",
    "repro.runner.pool",
    "repro.experiments.fig",
    "repro.experiments.arena",
    "repro.sim.sanitizer",
    "repro.obs.trace",
)


ZIGGURAT = "repro.sim._ziggurat"


def run_two_classes(factory: str) -> dict:
    """Build and run a 7:3 PABST system whose cores run ``factory()``."""
    return run_fresh(
        f"""
        import json, sys

        from repro import PabstMechanism
        from repro.experiments import ClassSpec, build_system
        from repro.workloads import ChaserWorkload, StreamWorkload, spec_workload

        factory = {factory}
        specs = [
            ClassSpec(0, "hi", weight=7, cores=2, workload_factory=factory),
            ClassSpec(1, "lo", weight=3, cores=2, workload_factory=factory),
        ]
        system = build_system(specs, mechanism=PabstMechanism())
        before_run = set(sys.modules)
        system.run_epochs(2)
        during_run = sorted(set(sys.modules) - before_run)
        system.finalize()
        print(json.dumps({{
            "loaded": sorted(sys.modules),
            "during_run": during_run,
            "bytes": system.stats.total_bytes(),
        }}))
        """
    )


def forbidden(out: dict) -> list[str]:
    return [name for name in out["loaded"] if name.startswith(FORBIDDEN_PREFIXES)]


def test_plain_pabst_run_imports_only_what_it_executes():
    out = run_two_classes("StreamWorkload")
    assert out["bytes"] > 0
    assert forbidden(out) == []
    assert ZIGGURAT not in out["loaded"]
    # imports deferred past build time would be charged to simulated time
    assert out["during_run"] == []


def test_chaser_run_imports_no_numpy():
    out = run_two_classes("ChaserWorkload")
    assert out["bytes"] > 0
    assert forbidden(out) == []
    assert ZIGGURAT not in out["loaded"]
    assert out["during_run"] == []


def test_spec_proxy_run_imports_no_numpy():
    # mcf's mean gap of 8 makes every gap an inversion-path geometric draw
    out = run_two_classes('lambda: spec_workload("mcf")')
    assert out["bytes"] > 0
    assert forbidden(out) == []
    assert ZIGGURAT in out["loaded"]
    assert set(out["during_run"]) <= {ZIGGURAT}


def test_ziggurat_tables_load_on_the_first_inversion_draw():
    out = run_fresh(
        f"""
        import json, sys

        from repro.sim.rng import Generator

        rng = Generator(7)
        steps = []
        for p in (1.0, 0.5, 1 / 3, 0.25):
            rng.geometric(p)
            steps.append({ZIGGURAT!r} in sys.modules)
        rng.integers(10)
        rng.random()
        print(json.dumps({{"steps": steps, "numpy": "numpy" in sys.modules}}))
        """
    )
    # p >= 1/3 is searched; only p = 0.25 runs inversion over the ziggurat
    assert out == {"steps": [False, False, False, True], "numpy": False}


def test_spec_hash_loads_no_simulator_module():
    out = run_fresh(
        """
        import json, sys

        from repro.runner.spec import RunSpec

        digest = RunSpec(figure="fig05", cell={"mixes": ("stream",)}).spec_hash()
        print(json.dumps({"hash": digest, "loaded": sorted(sys.modules)}))
        """
    )
    assert len(out["hash"]) == 16
    assert [name for name in out["loaded"] if name.startswith("repro.sim")] == []
