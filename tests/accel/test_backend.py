"""Backend registry semantics: selection, fallback, and accounting."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import accel
from repro.accel import build as build_mod
from repro.obs.warnings import reset_warning_counters, warning_counts
from repro.sim.engine import Engine

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def isolated_counters():
    reset_warning_counters()
    yield
    reset_warning_counters()


def test_unknown_backend_name_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        accel.resolve_backend("fortran")


def test_pure_resolves_without_loading_anything():
    assert accel.resolve_backend("pure") == "pure"


def test_auto_degrades_to_pure_without_a_prebuilt_artifact(
    monkeypatch, tmp_path
):
    # Simulate a fresh process in a tree with no built extension: auto
    # must fall back to pure without attempting a compile.
    monkeypatch.setattr(accel, "_core", None)
    monkeypatch.setattr(
        build_mod, "artifact_path", lambda cache_dir=None: tmp_path / "no.so"
    )
    assert accel.resolve_backend("auto") == "pure"
    assert warning_counts() == {"accel.auto_fallback": 1}


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A fresh process in a tree with no extension and no C toolchain."""
    monkeypatch.setattr(accel, "_core", None)
    monkeypatch.setattr(build_mod, "compiler", lambda: None)
    monkeypatch.setattr(
        build_mod, "artifact_path",
        lambda cache_dir=None: tmp_path / "accel" / "_wheelcore.so",
    )


def test_missing_compiler_fails_c_loudly_without_counting(no_compiler):
    with pytest.raises(accel.AccelUnavailable, match="no C compiler"):
        accel.resolve_backend("c")
    assert warning_counts() == {}


def test_missing_compiler_counts_the_auto_fallback_once(no_compiler):
    assert accel.resolve_backend("pure") == "pure"
    assert warning_counts() == {}
    assert accel.resolve_backend("auto") == "pure"
    assert warning_counts() == {"accel.auto_fallback": 1}


def test_accel_info_verb_does_not_count_a_fallback(no_compiler, capsys):
    from repro import cli

    assert cli.main(["accel"]) == 0
    captured = capsys.readouterr()
    assert "auto resolves to: pure" in captured.out
    assert "falls back" not in captured.err
    assert warning_counts() == {}


def test_native_manifest_loads_without_the_linter():
    # The build fingerprint folds in the manifest digest on every c/auto
    # resolve; reading the manifest must not drag in repro.devtools.
    code = textwrap.dedent(
        """
        import sys
        from repro.accel import native
        native.native_kinds()
        native.manifest_digest()
        print(sorted(m for m in sys.modules if m.startswith("repro.devtools")))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_backend_context_restores_previous_selection(c_backend):
    before = accel.active_backend()
    with accel.backend("c"):
        assert accel.active_backend() == "c"
        with accel.backend("pure"):
            assert accel.active_backend() == "pure"
        assert accel.active_backend() == "c"
    assert accel.active_backend() == before


def test_engine_class_follows_selection(c_backend):
    with accel.backend("pure"):
        assert accel.engine_class() is Engine
    with accel.backend("c"):
        cls = accel.engine_class()
        assert cls is not Engine
        assert cls.__name__ == "CEngine"
        # the compiled engine presents the same scheduling API
        engine = accel.make_engine(seed=7)
        assert engine.now == 0
        assert engine.live_events == 0


def test_c_core_counts_dispatches_even_after_switching_back(c_backend):
    with accel.backend("c"):
        engine = accel.make_engine()
    before = accel.core_dispatched_total()
    fired = []
    engine.post(5, fired.append, 1)
    # engine keeps its backend after selection reverts to pure
    engine.run_until(10)
    assert fired == [1]
    assert accel.core_dispatched_total() == before + 1


def test_controller_kernels_none_under_pure(c_backend):
    with accel.backend("pure"):
        assert accel.controller_kernels() is None
    with accel.backend("c"):
        assert accel.controller_kernels() is not None


def test_build_is_idempotent(c_backend):
    # the artifact already exists (the session fixture built it); a
    # second build must return the same path without recompiling
    path = build_mod.build()
    assert path.exists()
    assert build_mod.build() == path
