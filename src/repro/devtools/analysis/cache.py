"""Fingerprint-keyed disk cache for whole-program analysis results.

The whole-program pass is a function of the package source tree and
nothing else, so its output can be keyed by the same source fingerprint
the runner's result cache uses (:func:`repro.runner.fingerprint.
source_fingerprint`): any source edit anywhere in the package
invalidates the entry, and an unchanged tree hits the cache without
re-parsing a single file.

Entries are JSON, not pickle — PERF003 bans pickle from the package,
and the devtools hold themselves to the rules they enforce.  Layout
mirrors the runner's result cache: one
``<fingerprint>.json`` per entry under ``.repro-cache/analysis/``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.devtools.lint import Diagnostic

__all__ = [
    "DEFAULT_CACHE_DIR",
    "diagnostics_from_payload",
    "diagnostics_to_payload",
    "load_analysis",
    "store_analysis",
]

DEFAULT_CACHE_DIR = ".repro-cache/analysis"

#: Bump when the cached payload shape or any rule's output changes so
#: stale entries from older analyzer versions never replay.
_SCHEMA_VERSION = 1


def diagnostics_to_payload(diagnostics: list[Diagnostic]) -> list[dict]:
    return [
        {
            "path": d.path,
            "line": d.line,
            "col": d.col,
            "code": d.code,
            "message": d.message,
            "end_line": d.end_line,
        }
        for d in diagnostics
    ]


def diagnostics_from_payload(payload: list[dict]) -> list[Diagnostic]:
    return [
        Diagnostic(
            path=entry["path"],
            line=entry["line"],
            col=entry["col"],
            code=entry["code"],
            message=entry["message"],
            end_line=entry.get("end_line", 0),
        )
        for entry in payload
    ]


def _entry_path(cache_dir: Path | str, fingerprint: str) -> Path:
    return Path(cache_dir) / f"{fingerprint}.json"


def load_analysis(
    cache_dir: Path | str, fingerprint: str
) -> tuple[list[Diagnostic], dict] | None:
    """Cached ``(diagnostics, symtab summary)`` for a fingerprint, or None."""
    path = _entry_path(cache_dir, fingerprint)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        entry = json.loads(raw)
    except json.JSONDecodeError:
        return None
    if entry.get("schema") != _SCHEMA_VERSION:
        return None
    if entry.get("fingerprint") != fingerprint:
        return None
    try:
        diagnostics = diagnostics_from_payload(entry["diagnostics"])
    except (KeyError, TypeError):
        return None
    return diagnostics, entry.get("symbols", {})


def store_analysis(
    cache_dir: Path | str,
    fingerprint: str,
    diagnostics: list[Diagnostic],
    symbols: dict,
) -> Path:
    """Write one cache entry; returns the entry path."""
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = _entry_path(directory, fingerprint)
    entry = {
        "schema": _SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "diagnostics": diagnostics_to_payload(diagnostics),
        "symbols": symbols,
    }
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)
    return path
