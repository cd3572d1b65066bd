"""Runtime-selected compiled backend for the simulation hot core.

Two interchangeable backends execute the timing-wheel dispatch loops and
the memory-controller ready scans:

``pure``
    The reference implementation in :mod:`repro.sim.engine` /
    :mod:`repro.dram.controller`.  Always available, never modified by
    backend selection, and the implementation every determinism argument
    is written against.
``c``
    A hand-written CPython extension (:mod:`repro.accel.build` compiles
    ``_wheelcore.c`` locally) whose loops are line-for-line ports of the
    pure ones.  Reports are byte-identical; only wall-clock changes.

Selection is process-global and explicit: the library default is
``pure`` (overridable with the ``REPRO_ACCEL`` environment variable),
CLI verbs take ``--backend={pure,c,auto}``, and tests use the
:func:`backend` context manager.  ``auto`` resolves to ``c`` only when a
prebuilt extension for this exact source+ABI already exists — it never
compiles implicitly — so a tree without a toolchain degrades to ``pure``,
counted as an ``accel.auto_fallback`` warning.  ``c`` builds on demand
and raises :class:`AccelUnavailable` (with the compiler diagnostics)
when it cannot, so an explicit request is never silently downgraded.

The selected backend applies to engines built *after* selection;
existing systems keep the backend they were built with.  Wheel state
lives in plain Python structures on both backends (see DESIGN.md §10).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "AccelUnavailable",
    "BACKENDS",
    "active_backend",
    "backend",
    "build_fingerprint",
    "controller_kernels",
    "core",
    "core_dispatched_total",
    "engine_class",
    "fastpath_stats",
    "make_engine",
    "resolve_backend",
    "use_backend",
]

#: Backend names a spec may carry (``auto`` resolves to one of these).
BACKENDS = ("pure", "c")


class AccelUnavailable(RuntimeError):
    """The compiled backend was requested but cannot be provided."""


#: Loaded extension module (process-global: a CPython extension
#: initializes once per process) or None.  Tracked independently of the
#: *active* backend — events dispatched under ``c`` must keep counting
#: after a switch back to ``pure``.
_core = None

#: Resolved active backend ("pure"/"c"); None until first use so the
#: REPRO_ACCEL escape hatch is honoured lazily (import stays cheap and
#: side-effect-free).
_active: str | None = None


def _load_core(build_if_missing: bool):
    """Load (optionally building) the extension; raises AccelUnavailable."""
    global _core
    if _core is not None:
        return _core
    from repro.accel import build as build_mod

    path = build_mod.artifact_path()
    if not path.exists():
        if not build_if_missing:
            raise AccelUnavailable(
                f"no prebuilt extension at {path} (auto never compiles; "
                "run `repro accel build` or select --backend=c)"
            )
        path = build_mod.build()
    _core = build_mod.load(path)
    return _core


def resolve_backend(name: str) -> str:
    """Resolve a requested backend name to ``"pure"`` or ``"c"``.

    ``"c"`` loads the extension, building it if needed, and raises
    :class:`AccelUnavailable` when it cannot.  ``"auto"`` tries a
    prebuilt extension and falls back to ``"pure"``, bumping the
    ``accel.auto_fallback`` warning counter.
    """
    if name == "pure":
        return "pure"
    if name == "c":
        _load_core(build_if_missing=True)
        return "c"
    if name == "auto":
        try:
            _load_core(build_if_missing=False)
        except AccelUnavailable as exc:
            from repro.obs.warnings import obs_warn

            obs_warn("accel.auto_fallback", "backend auto falls back to pure: %s", exc)
            return "pure"
        return "c"
    raise ValueError(
        f"unknown backend {name!r}; expected one of: pure, c, auto"
    )


def active_backend() -> str:
    """The backend new engines are built with (``"pure"`` or ``"c"``)."""
    global _active
    if _active is None:
        _active = resolve_backend(os.environ.get("REPRO_ACCEL", "pure"))
    return _active


def use_backend(name: str) -> str:
    """Select the backend for subsequently built engines; returns it resolved."""
    global _active
    _active = resolve_backend(name)
    return _active


@contextmanager
def backend(name: str) -> Iterator[str]:
    """Temporarily select a backend (resolved; restores the previous one)."""
    global _active
    previous = _active
    resolved = resolve_backend(name)
    _active = resolved
    try:
        yield resolved
    finally:
        _active = previous


def core():
    """The loaded extension module, or None (load state, not selection)."""
    return _core


def core_dispatched_total() -> int:
    """Events dispatched by compiled loops in this process (0 if none)."""
    if _core is None:
        return 0
    return _core.dispatched_total()


def fastpath_stats() -> dict:
    """Process-wide native fast-path counters (zeros when no extension).

    ``{"hits": int, "misses": int, "kinds": {tag: hits}}`` — hits are
    events a registered C kind handler executed without entering the
    interpreter; misses fell back to the Python callback path.  Pure
    dispatch loops count neither.
    """
    if _core is None:
        return {"hits": 0, "misses": 0, "kinds": {}}
    return _core.fastpath_stats()


def build_fingerprint() -> str | None:
    """Source+ABI fingerprint of the loaded extension, or None."""
    if _core is None:
        return None
    from repro.accel import build as build_mod

    return build_mod.source_fingerprint()


def engine_class() -> type:
    """The Engine class of the active backend."""
    if active_backend() == "c":
        from repro.accel.engine import c_engine_class

        return c_engine_class(_core)
    from repro.sim.engine import Engine

    return Engine


def make_engine(seed: int = 0):
    """Build an engine of the active backend (the System factory hook)."""
    return engine_class()(seed)


def controller_kernels():
    """The compiled controller-kernel module, or None under ``pure``.

    Controllers bind this at construction; a None binding selects the
    pure-Python ready scans.
    """
    if active_backend() == "c":
        return _core
    return None
