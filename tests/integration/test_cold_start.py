"""Cold-start guards: what a process imports before its first cycle.

Package ``__init__`` modules re-export lazily (``repro._lazy``), so a run
imports only the modules it executes.  Two properties keep that true:

* every ``repro`` module imports cleanly when it is the *first* one a
  fresh interpreter loads — lazy packages no longer fix a global import
  order, so a latent cycle shows up as an ``ImportError`` here;
* building and running a plain PABST system loads no graph library, no
  process pool, no checkpoint store, no sanitizer or tracer, and no
  figure module — and nothing at all once simulated time is running.

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
    "networkx",
    "concurrent.futures",
    "multiprocessing",
    "repro.runner.pool",
    "repro.runner.checkpoint",
    "repro.experiments.fig",
    "repro.experiments.arena",
    "repro.sim.sanitizer",
    "repro.obs.trace",
)


def test_plain_pabst_run_imports_only_what_it_executes():
    out = run_fresh(
        """
        import json, sys

        from repro import PabstMechanism, StreamWorkload
        from repro.experiments import ClassSpec, build_system

        specs = [
            ClassSpec(0, "hi", weight=7, cores=2, workload_factory=StreamWorkload),
            ClassSpec(1, "lo", weight=3, cores=2, workload_factory=StreamWorkload),
        ]
        system = build_system(specs, mechanism=PabstMechanism())
        before_run = set(sys.modules)
        system.run_epochs(2)
        during_run = sorted(set(sys.modules) - before_run)
        system.finalize()
        print(json.dumps({
            "loaded": sorted(sys.modules),
            "during_run": during_run,
            "bytes": system.stats.total_bytes(),
        }))
        """
    )
    assert out["bytes"] > 0
    assert [name for name in out["loaded"] if name.startswith(FORBIDDEN_PREFIXES)] == []
    # imports deferred past build time would be charged to simulated time
    assert out["during_run"] == []
