"""Whole-program static analysis for the repro package.

This package grows ``repro.devtools`` beyond per-file AST matching: it
builds one shared symbol table + call graph over the package tree
(:mod:`.symbols`, :mod:`.callgraph`) and runs three whole-program rule
families against it:

* **DET1xx** (:mod:`.taint`) — cross-module determinism taint: can a
  wall-clock/RNG/``hash()`` value *reach* the event queue or seed
  derivation via any call path?
* **HOT** (:mod:`.hotpath`) — compiled-subset discipline for the
  declared hot-kernel manifest (ROADMAP item 4 pre-flight).
* **OBS** (:mod:`.obs_rules`) — every registered observability provider
  names a statically-existing, data-like attribute.

Results are cached on disk keyed by the runner source fingerprint
(:mod:`.cache`), so a clean warm run skips parsing entirely.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.devtools.analysis.cache import (
    DEFAULT_CACHE_DIR,
    load_analysis,
    store_analysis,
)
from repro.devtools.analysis.callgraph import build_call_graph
from repro.devtools.analysis.hotpath import HOT_KERNELS, analyze_hot_kernels
from repro.devtools.analysis.obs_rules import analyze_obs_providers
from repro.devtools.analysis.symbols import ProjectIndex, build_index
from repro.devtools.analysis.taint import analyze_taint
from repro.devtools.lint import Diagnostic

__all__ = [
    "HOT_KERNELS",
    "WHOLE_PROGRAM_RULES",
    "analyze_project",
    "build_call_graph",
    "build_index",
    "ProjectIndex",
]

#: Rule metadata for ``--list-rules``: code -> (summary, family).
#: Whole-program rules live here, not in ``lint.RULES`` — they need the
#: project index and cannot run per-file.
WHOLE_PROGRAM_RULES: dict[str, tuple[str, str]] = {
    "DET101": (
        "nondeterministic value can reach an event-queue timestamp "
        "(post/post_at/post_chain_at/schedule/run_until) via some call path",
        "determinism",
    ),
    "DET102": (
        "nondeterministic value can reach RNG seed derivation "
        "(SeedSequence/PCG64/default_rng or a seed=/entropy= kwarg)",
        "determinism",
    ),
    "HOT001": (
        "hot kernel uses dynamic features (eval/exec/globals/setattr/**kwargs) "
        "outside the compiled subset",
        "hot-path",
    ),
    "HOT002": (
        "hot kernel nested def/lambda captures enclosing state (cell "
        "variables defeat unboxing)",
        "hot-path",
    ),
    "HOT003": (
        "container allocation inside a hot-kernel loop (tuples allowed)",
        "hot-path",
    ),
    "HOT004": (
        "hot-kernel timestamp parameter not annotated int / float literal "
        "in cycle arithmetic",
        "hot-path",
    ),
    "HOT005": (
        "hot-kernel manifest and '# repro: hot-kernel' markers disagree",
        "hot-path",
    ),
    "HOT006": (
        "NATIVE_KERNELS manifest and 'repro: native-kernel' markers disagree",
        "hot-path",
    ),
    "OBS001": (
        "registered obs provider attribute does not statically exist on "
        "the provider class",
        "observability",
    ),
    "OBS002": (
        "registered obs provider attribute is a plain method, not a "
        "field or property",
        "observability",
    ),
}


def analyze_index(index: ProjectIndex) -> list[Diagnostic]:
    """Run every whole-program family against an already-built index."""
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(analyze_taint(index))
    diagnostics.extend(analyze_hot_kernels(index))
    diagnostics.extend(analyze_obs_providers(index))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))
    return diagnostics


def analyze_project(
    root: Path | str,
    package: str | None = None,
    cache_dir: Path | str | None = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
) -> tuple[list[Diagnostic], dict]:
    """Whole-program pass over one package directory.

    Returns ``(diagnostics, info)`` where ``info`` carries the source
    fingerprint, elapsed wall time, and whether the disk cache was hit.
    Pass ``cache_dir=None`` (or ``use_cache=False``) to force a cold run.
    """
    from repro.runner.fingerprint import source_fingerprint

    root = Path(root)
    started = time.perf_counter()
    fingerprint = source_fingerprint(root)
    if use_cache and cache_dir is not None:
        cached = load_analysis(cache_dir, fingerprint)
        if cached is not None:
            diagnostics, _symbols = cached
            return diagnostics, {
                "fingerprint": fingerprint,
                "cache_hit": True,
                "elapsed_s": time.perf_counter() - started,
            }
    index = build_index(root, package=package)
    diagnostics = analyze_index(index)
    if use_cache and cache_dir is not None:
        store_analysis(cache_dir, fingerprint, diagnostics, index.summary())
    return diagnostics, {
        "fingerprint": fingerprint,
        "cache_hit": False,
        "elapsed_s": time.perf_counter() - started,
        "modules": len(index.modules),
        "functions": len(index.functions),
    }
