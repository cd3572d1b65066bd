"""Worker-side execution of one :class:`~repro.runner.spec.RunSpec`.

:func:`execute_payload` is a module-level function taking and returning
plain dicts, so it pickles cleanly across the ``ProcessPoolExecutor``
boundary.  It measures wall-clock time and the number of simulation
events dispatched (via :func:`repro.sim.engine.dispatched_total`), the
two numbers the bench and sweep reports are built from.

Failures are part of the contract: any exception inside the figure run
is caught and returned as a ``{"ok": False, ...}`` payload, so one bad
cell never takes down a sweep.
"""

from __future__ import annotations

import time
import traceback
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.spec import RunSpec

__all__ = ["execute_payload", "execute_spec", "figure_module"]


def figure_module(figure: str):
    """The experiment module for a figure name (e.g. ``fig05``)."""
    import importlib

    from repro.cli import EXPERIMENTS

    if figure not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown figure {figure!r}; known: {known}")
    return importlib.import_module(EXPERIMENTS[figure][0])


def _run_kwargs(cell: Mapping[str, Any]) -> dict[str, Any]:
    """Cell kwargs with JSON round-trip artifacts undone (lists->tuples)."""
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in cell.items()
    }


def execute_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Run one spec (as a plain-dict payload) and return a result dict."""
    from repro.runner.spec import RunSpec

    spec = RunSpec.from_payload(payload)
    try:
        return execute_spec(spec)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def execute_spec(spec: RunSpec) -> dict[str, Any]:
    """Run one :class:`RunSpec` in-process and time it."""
    from repro import accel
    from repro.experiments.common import config_overrides
    from repro.sim.engine import dispatched_total

    # Backend selection wraps the whole run, construction included;
    # "pure" still enters the context to shadow any ambient
    # REPRO_ACCEL=c, since the spec's resolved backend is part of its
    # content hash.
    backing = accel.backend(spec.backend)
    module = figure_module(spec.figure)
    kwargs = _run_kwargs(spec.cell)
    events_before = dispatched_total()
    fp_before = accel.fastpath_stats()
    started = time.perf_counter()
    with backing, config_overrides(**dict(spec.overrides)):
        result = module.run(quick=spec.quick, seed=spec.seed, **kwargs)
    wall = time.perf_counter() - started
    events = dispatched_total() - events_before
    outcome = {
        "ok": True,
        "figure": spec.figure,
        "label": spec.label(),
        "report": result.report(),
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }
    fastpath = _fastpath_delta(fp_before, accel.fastpath_stats())
    if fastpath is not None:
        outcome["fastpath"] = fastpath
    # Result objects that expose a structured document (the arena) ship
    # it through the cache so reports can be merged without re-running.
    if hasattr(result, "metrics"):
        outcome["metrics"] = result.metrics()
    return outcome


def _fastpath_delta(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, Any] | None:
    """Native fast-path counter delta for one run, or None if idle.

    The extension's counters are process-global, so the delta isolates
    this run's dispatch coverage.  A pure-backend run moves nothing and
    reports nothing.
    """
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    if hits == 0 and misses == 0:
        return None
    kinds_before = before.get("kinds", {})
    kinds = {
        tag: count - kinds_before.get(tag, 0)
        for tag, count in after.get("kinds", {}).items()
        if count - kinds_before.get(tag, 0) > 0
    }
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / total, 6) if total > 0 else 0.0,
        "kinds": kinds,
    }
