"""Observability layer: counter registry, request tracer, metric streams.

Three cooperating pieces, all opt-in and all near-zero cost when unused
(DESIGN.md §8 states the overhead contract):

* :mod:`repro.obs.registry` — named monotonic counters and gauges that
  components register on the :class:`~repro.sim.system.System`'s
  ``Registry``.  Sampling is pull-based (attribute reads at snapshot
  time), so registration adds nothing to simulation hot paths.
* :mod:`repro.obs.trace` — a ring-buffered recorder of
  :class:`~repro.sim.records.MemoryRequest` lifecycle transitions that
  exports Chrome trace-event JSON (viewable in Perfetto).  Attached as
  ``engine.tracer``; when absent, every hook site is a single
  ``is None`` test.
* :mod:`repro.obs.streams` — pluggable sinks that
  :meth:`repro.sim.stats.Stats.close_epoch` publishes per-class
  bandwidth/saturation/multiplier samples to (JSONL file, in-memory).

:mod:`repro.obs.warnings` additionally counts the runner's tolerated
failures (a corrupt or unwritable cache entry, a broken process pool)
in process-global counters that ``repro sweep`` and ``repro arena``
print after their summary line.

Re-exports resolve on first access (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.registry import NULL_COUNTER, ObsCounter, Registry
    from repro.obs.streams import JsonlSink, MemorySink, epoch_record
    from repro.obs.trace import (
        RequestTracer,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.obs.warnings import obs_warn, reset_warning_counters, warning_counts

__all__ = [
    "JsonlSink",
    "MemorySink",
    "NULL_COUNTER",
    "ObsCounter",
    "Registry",
    "RequestTracer",
    "epoch_record",
    "obs_warn",
    "reset_warning_counters",
    "validate_chrome_trace",
    "warning_counts",
    "write_chrome_trace",
]

__getattr__ = lazy_exports(__name__, {
    "repro.obs.registry": ["NULL_COUNTER", "ObsCounter", "Registry"],
    "repro.obs.streams": ["JsonlSink", "MemorySink", "epoch_record"],
    "repro.obs.trace": ["RequestTracer", "validate_chrome_trace", "write_chrome_trace"],
    "repro.obs.warnings": ["obs_warn", "reset_warning_counters", "warning_counts"],
})
