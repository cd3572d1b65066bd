"""Unit tests for the whole-program analysis subsystem."""

from __future__ import annotations

import time
from pathlib import Path

from repro.devtools.analysis import (
    WHOLE_PROGRAM_RULES,
    analyze_index,
    analyze_project,
)
from repro.devtools.analysis.cache import load_analysis, store_analysis
from repro.devtools.analysis.callgraph import build_call_graph
from repro.accel.native import NATIVE_KERNELS
from repro.devtools.analysis.hotpath import _native_manifest, find_native_kernels
from repro.devtools.analysis.symbols import build_index
from repro.devtools.analysis.taint import analyze_taint
from repro.devtools.lint import Diagnostic

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def _index(sources: dict[str, str]):
    return build_index("proj", package="proj", sources=sources)


# ----------------------------------------------------------------------
# symbol table
# ----------------------------------------------------------------------
def test_fields_inferred_from_annotations_and_constructor_calls():
    index = _index(
        {
            "proj/a.py": (
                "class Pacer:\n"
                "    def __init__(self, rate: int):\n"
                "        self.rate = rate\n"
                "        self.blocked = []\n"
            ),
            "proj/b.py": (
                "from proj.a import Pacer\n"
                "class Controller:\n"
                "    def __init__(self):\n"
                "        self.pacer = Pacer(4)\n"
            ),
        }
    )
    assert index.field_type("proj.a.Pacer", "rate") == "int"
    assert index.field_type("proj.b.Controller", "pacer") == "proj.a.Pacer"


def test_callable_annotations_map_to_unknown():
    index = _index(
        {
            "proj/a.py": (
                "from typing import Callable\n"
                "class Core:\n"
                "    def __init__(self, fn: Callable[[int], int]):\n"
                "        self.access_fn = fn\n"
            ),
        }
    )
    # a Callable annotation names no class the index could resolve
    assert index.field_type("proj.a.Core", "access_fn") == "?"


def test_class_attrs_open_universe_with_dynamic_getattr():
    index = _index(
        {
            "proj/a.py": (
                "class Open:\n"
                "    def __getattr__(self, name):\n"
                "        return 0\n"
                "class Closed:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
            ),
        }
    )
    assert index.class_attrs("proj.a.Open") is None
    attrs = index.class_attrs("proj.a.Closed")
    assert attrs is not None and "x" in attrs


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
def test_call_graph_resolves_cross_module_and_self_calls():
    index = _index(
        {
            "proj/a.py": "def helper():\n    return 1\n",
            "proj/b.py": (
                "from proj.a import helper\n"
                "class C:\n"
                "    def one(self):\n"
                "        return helper()\n"
                "    def two(self):\n"
                "        return self.one()\n"
            ),
        }
    )
    graph = build_call_graph(index)
    assert "proj.b.C.one" in graph.callers["proj.a.helper"]
    assert "proj.b.C.two" in graph.callers["proj.b.C.one"]


# ----------------------------------------------------------------------
# taint
# ----------------------------------------------------------------------
_TAINT_COMMON = (
    "class Engine:\n"
    "    def post_at(self, when, fn):\n"
    "        pass\n"
)


def test_taint_reaches_sink_through_two_hops():
    index = _index(
        {
            "proj/a.py": (
                "import time\n"
                "def raw():\n"
                "    return time.perf_counter()\n"
                "def scaled():\n"
                "    return int(raw() * 2)\n"
            ),
            "proj/b.py": (
                "from proj.a import scaled\n" + _TAINT_COMMON +
                "def arm(engine: Engine):\n"
                "    engine.post_at(scaled(), print)\n"
            ),
        }
    )
    diags = analyze_taint(index)
    assert [d.code for d in diags] == ["DET101"]
    assert "perf_counter" in diags[0].message
    assert "call path" in diags[0].message


def test_taint_killed_by_reassignment():
    index = _index(
        {
            "proj/a.py": (
                "import time\n" + _TAINT_COMMON +
                "def arm(engine: Engine):\n"
                "    when = time.time()\n"
                "    when = 100\n"
                "    engine.post_at(when, print)\n"
            ),
        }
    )
    assert analyze_taint(index) == []


def test_untainted_values_do_not_fire():
    index = _index(
        {
            "proj/a.py": (
                _TAINT_COMMON +
                "def arm(engine: Engine, base: int):\n"
                "    engine.post_at(base + 4, print)\n"
            ),
        }
    )
    assert analyze_taint(index) == []


# ----------------------------------------------------------------------
# native mirrors (HOT006)
# ----------------------------------------------------------------------
def test_corpus_packages_do_not_inherit_repro_manifest():
    index = _index({"proj/x.py": "def plain():\n    return 1\n"})
    from repro.devtools.analysis.hotpath import analyze_hot_kernels

    assert analyze_hot_kernels(index) == []


def test_native_manifest_entries_all_marked_in_tree():
    index = build_index(PACKAGE_ROOT)
    # HOT006 reads the runtime manifest statically, like any corpus
    assert _native_manifest(index) == NATIVE_KERNELS
    assert set(NATIVE_KERNELS) == set(find_native_kernels(index))


def test_hot006_fires_on_native_marker_without_manifest_entry():
    from repro.devtools.analysis.hotpath import analyze_hot_kernels

    index = _index(
        {
            "proj/y.py": (
                "def mirrored():  # repro: native-kernel\n    return 1\n"
            )
        }
    )
    diags = [d for d in analyze_hot_kernels(index) if d.code == "HOT006"]
    assert len(diags) == 1
    assert "absent from the NATIVE_KERNELS manifest" in diags[0].message


def test_hot006_fires_on_manifest_entry_without_marker():
    from repro.devtools.analysis.hotpath import analyze_hot_kernels

    index = _index(
        {
            "proj/y.py": (
                'NATIVE_KERNELS = {"proj.y.mirrored": "mirrored"}\n'
                "def mirrored():\n    return 1\n"
            )
        }
    )
    diags = [d for d in analyze_hot_kernels(index) if d.code == "HOT006"]
    assert len(diags) == 1
    assert "is not marked" in diags[0].message


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------
def test_cache_round_trip_and_fingerprint_mismatch(tmp_path):
    diags = [
        Diagnostic(path="src/x.py", line=3, col=1, code="HOT006",
                   message="demo", end_line=4),
    ]
    store_analysis(tmp_path, "abcd1234", diags, {"package": "repro"})
    loaded = load_analysis(tmp_path, "abcd1234")
    assert loaded is not None
    cached_diags, symbols = loaded
    assert cached_diags == diags
    assert cached_diags[0].end_line == 4
    assert symbols == {"package": "repro"}
    assert load_analysis(tmp_path, "ffff0000") is None


def test_cache_rejects_corrupt_entries(tmp_path):
    (tmp_path / "abcd1234.json").write_text("{not json", encoding="utf-8")
    assert load_analysis(tmp_path, "abcd1234") is None


# ----------------------------------------------------------------------
# whole-program pass over the real tree
# ----------------------------------------------------------------------
def test_analyze_project_cold_under_budget(tmp_path):
    started = time.perf_counter()
    diags, info = analyze_project(PACKAGE_ROOT, cache_dir=tmp_path)
    elapsed = time.perf_counter() - started
    assert not info["cache_hit"]
    assert elapsed < 10.0, f"cold whole-program pass took {elapsed:.1f}s"
    # the clean tree has no raw findings: nothing is suppressed out of band
    assert diags == []


def test_analyze_project_warm_hits_cache_under_budget(tmp_path):
    cold_diags, _ = analyze_project(PACKAGE_ROOT, cache_dir=tmp_path)
    started = time.perf_counter()
    warm_diags, info = analyze_project(PACKAGE_ROOT, cache_dir=tmp_path)
    elapsed = time.perf_counter() - started
    assert info["cache_hit"]
    assert elapsed < 2.0, f"warm whole-program pass took {elapsed:.1f}s"
    assert warm_diags == cold_diags


def test_clean_tree_exits_zero_through_main(monkeypatch):
    from repro.devtools.lint import main

    monkeypatch.chdir(REPO_ROOT)
    assert main(["src", "tests", "--no-cache"]) == 0


def test_every_inline_suppression_names_its_codes():
    # ``# repro: noqa[CODE]`` is the only way to silence a finding, so
    # each one in the tree must say which rule it silences
    import io
    import tokenize

    from repro.devtools.lint import _NOQA_RE

    blanket = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = _NOQA_RE.search(token.string)
                if match is not None and match.group("codes") is None:
                    blanket.append(f"{path.relative_to(REPO_ROOT)}:{token.start[0]}")
    assert blanket == []


def test_whole_program_rules_do_not_collide_with_per_file_rules():
    from repro.devtools.lint import RULES

    assert not set(WHOLE_PROGRAM_RULES) & set(RULES)


def test_obs_pass_resolves_real_registrations():
    # the System wiring must be *visible* to the OBS pass (providers
    # resolved, zero findings) — not silently skipped
    index = build_index(PACKAGE_ROOT)
    analyze_index(index)  # no exception
    system = index.classes.get("repro.sim.system.System")
    assert system is not None
    assert index.field_type("repro.sim.system.System", "stats") != "?"
