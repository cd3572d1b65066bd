"""Process-global warning counters for swallowed-but-notable errors.

The runner tolerates some failures by design: a read-only or corrupt
result cache, a concurrently-evicted entry, a process pool that broke
mid-sweep.  A cache must not take the simulation down.  But a *silent*
``except OSError: pass`` hides store corruption until someone wonders
why nothing ever hits.  Those sites call :func:`obs_warn`, which both
logs through the ``repro.obs`` logger and bumps a named counter.
``repro sweep`` and ``repro arena`` print the nonzero counters after
their summary line, in the process that raised them.

The counters are process-global (not per-``System``) because the
failures they count happen in the runner layer, outside any simulated
system; tests isolate themselves with :func:`reset_warning_counters`.
"""

from __future__ import annotations

import logging

__all__ = ["obs_warn", "reset_warning_counters", "warning_counts"]

_log = logging.getLogger("repro.obs")

_counters: dict[str, int] = {}


def obs_warn(counter: str, message: str, *args: object) -> None:
    """Count one occurrence of ``counter`` and log ``message % args``."""
    _counters[counter] = _counters.get(counter, 0) + 1
    _log.warning(message, *args)


def warning_counts() -> dict[str, int]:
    """Snapshot of every warning counter hit so far (name -> count)."""
    return dict(_counters)


def reset_warning_counters() -> None:
    """Zero all counters (test isolation)."""
    _counters.clear()
