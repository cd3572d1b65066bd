"""Class-level probes the benchmark installs before building systems.

Nothing here edits the simulator: every probe replaces a public method
on its class with a wrapper that calls the original.  Three kinds:

* :class:`SystemProbe` wraps ``System.run`` and ``System.finalize`` in
  every mode.  It stamps the first simulated cycle (the end of set-up),
  times each system's run, counts its events, attaches an epoch sink
  that stamps each epoch's end and samples controller backlog, and
  summarizes each finished system into a plain-dict payload.  It adds a
  handful of calls per system and one per epoch.
* :class:`SpanTracer` wraps each layer's entry points in the traced
  run and records spans in memory: count, total and self time per span
  name, self time being a span's duration minus its children's.
* :func:`profile_layers` groups a cProfile run's self time by the
  ``src/repro`` package it was spent in, which also covers the work the
  engine dispatches rather than calls (scheduling passes, pacer chains).
"""

from __future__ import annotations

import pstats
import time
from pathlib import PurePath

# ----------------------------------------------------------------------
# per-system summary probe
# ----------------------------------------------------------------------


class EpochSampler:
    """Epoch sink: end-of-epoch host stamps, requests blocked outside
    full MCs and MC read depth."""

    def __init__(self, system, stamps: list[float]) -> None:
        self.system = system
        self.stamps = stamps
        self.backlog_sum = 0
        self.queue_sum = 0
        self.samples = 0

    def publish(self, record) -> None:
        self.stamps.append(time.monotonic())
        system = self.system
        gauges = system.obs.gauges()
        for controller in system.controllers:
            mc_id = controller.mc_id
            self.backlog_sum += system.blocked_at_mc(mc_id)
            self.queue_sum += gauges[f"mc{mc_id}.queue_depth"]
            self.samples += 1


class _Record:
    __slots__ = ("sampler", "run_s", "events", "next_access_calls")

    def __init__(self, sampler: EpochSampler) -> None:
        self.sampler = sampler
        self.run_s = 0.0
        self.events = 0
        self.next_access_calls = 0


class SystemProbe:
    """Wraps ``System.run``/``System.finalize``; see the module docstring.

    ``layout(system)`` returns ``(weights, hi_qos, warmup_epochs)`` for a
    system, or None to skip its summary.
    """

    def __init__(self, layout, tracer: "SpanTracer | None" = None) -> None:
        self.layout = layout
        self.tracer = tracer
        self.first_cycle_at: float | None = None
        #: ``time.monotonic()`` at the end of every epoch of every system
        self.epoch_stamps: list[float] = []
        self.summaries: list[dict] = []
        # (system, record) for systems run but not yet finalized
        self._live: list[tuple[object, _Record]] = []

    def install(self) -> None:
        from repro.sim.engine import dispatched_total
        from repro.sim.system import System

        run = System.run
        finalize = System.finalize
        probe = self

        def probed_run(system, cycles):
            if probe.first_cycle_at is None:
                probe.first_cycle_at = time.monotonic()
            record = probe._record(system)
            if record is None:
                sampler = EpochSampler(system, probe.epoch_stamps)
                system.stats.add_sink(sampler)
                record = _Record(sampler)
                probe._live.append((system, record))
            calls = probe._next_access_calls()
            events = dispatched_total()
            started = time.perf_counter()
            try:
                return run(system, cycles)
            finally:
                record.run_s += time.perf_counter() - started
                record.events += dispatched_total() - events
                record.next_access_calls += probe._next_access_calls() - calls

        def probed_finalize(system):
            finalize(system)
            record = probe._record(system)
            probe._live = [pair for pair in probe._live if pair[0] is not system]
            probe.summaries.append(probe._summarize(system, record))

        System.run = probed_run
        System.finalize = probed_finalize

    def _record(self, system) -> _Record | None:
        return next((r for s, r in self._live if s is system), None)

    def _next_access_calls(self) -> int:
        if self.tracer is None:
            return 0
        return self.tracer.table.get(NEXT_ACCESS, (0,))[0]

    def _summarize(self, system, record: _Record) -> dict:
        mechanism = system.mechanism.name
        summary = {
            "mechanism": mechanism,
            "run_s": record.run_s,
            "events": record.events,
            "cycles": system.engine.now,
            "next_access_calls": record.next_access_calls,
        }
        layout = self.layout(system)
        if layout is None:
            return summary
        weights, hi, warmup = layout
        stats = system.stats
        steady = stats.epochs[warmup:]
        steady_bytes: dict[str, int] = {}
        for sample in steady:
            for qos, count in sample.bytes_by_class.items():
                steady_bytes[str(qos)] = steady_bytes.get(str(qos), 0) + count
        hist: dict[str, int] = {}
        for latency in stats.read_latencies.get(hi, []):
            hist[str(latency)] = hist.get(str(latency), 0) + 1
        counters = system.obs.counters()

        def total(suffix: str, prefix: str = "") -> int:
            return sum(
                value
                for name, value in counters.items()
                if name.startswith(prefix) and name.endswith(suffix)
            )

        sampler = record.sampler
        summary["sim"] = {
            "weights": {str(qos): weight for qos, weight in weights.items()},
            "peak_bandwidth": system.config.peak_bandwidth,
            "steady_bytes": dict(sorted(steady_bytes.items())),
            "steady_cycles": sum(sample.cycles for sample in steady),
            "hi_latency_hist": hist,
            "cycles": system.engine.now,
            "counts": {
                "events": record.events,
                "backlog_sum": sampler.backlog_sum,
                "queue_sum": sampler.queue_sum,
                "backlog_samples": sampler.samples,
                "accesses": sum(
                    core.accesses_completed for core in system.cores.values()
                ),
                "hi_instructions": stats.class_stats(hi).instructions,
                "l2_hits": total(".hits", "l2."),
                "l2_misses": total(".misses", "l2."),
                "l3_hits": total(".hits", "l3."),
                "l3_misses": total(".misses", "l3."),
                "l3_dirty_evictions": sum(
                    cache.dirty_evictions for cache in system.hierarchy.l3_slices
                ),
                "reads_accepted": total(".reads_accepted", "mc"),
                "writes_accepted": total(".writes_accepted", "mc"),
                "rejects": total(".rejects", "mc"),
                "bus_busy_cycles": counters["stats.bus_busy_cycles"],
                "mc_active_cycles": counters["stats.mc_active_cycles"],
                "releases_granted": counters["mechanism.releases_granted"],
                "releases_denied": counters["mechanism.releases_denied"],
                "writeback_charges": counters["mechanism.writeback_charges"],
                "uncharges": total(".uncharges", "pacer."),
                "direction_flips": total(".direction_flips", "governor."),
                "deadline_inversions": total(".deadline_inversions", "arbiter."),
                "sat_epochs": sum(1 for sample in stats.epochs if sample.saturated),
                "epochs": len(stats.epochs),
            },
        }
        return summary


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

#: Span name of every workload's ``next_access``.
NEXT_ACCESS = "workloads:next_access"


class SpanTracer:
    """In-memory span recorder keyed by span name."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        #: name -> [count, total_ns, self_ns]
        self.table: dict[str, list[int]] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        name, started, children = self._stack.pop()
        duration = time.perf_counter_ns() - started
        row = self.table.get(name)
        if row is None:
            row = self.table[name] = [0, 0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, cls: type, method: str, name: str) -> None:
        """Replace ``cls.method`` (own or inherited) with a spanned call."""
        original = next(k.__dict__[method] for k in cls.__mro__ if method in k.__dict__)
        tracer = self

        def spanned(*args, **kwargs):
            tracer.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit()

        spanned.__name__ = original.__name__
        spanned.__qualname__ = original.__qualname__
        setattr(cls, method, spanned)

    def report(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "count": count,
                "total_s": total / 1e9,
                "self_s": own / 1e9,
            }
            for name, (count, total, own) in sorted(self.table.items())
        }


def install_spans(tracer: SpanTracer) -> None:
    """Wrap every layer's public entry points with spans."""
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.pabst import PabstMechanism
    from repro.dram.controller import MemoryController
    from repro.mechanisms import MECHANISMS
    from repro.sim.engine import Engine
    from repro.sim.mechanism import QoSMechanism
    from repro.sim.stats import Stats
    from repro.sim.system import System
    from repro.workloads.chaser import ChaserWorkload
    from repro.workloads.stream import StreamWorkload

    tracer.wrap(System, "run", "sim.system:System.run")
    tracer.wrap(Engine, "run_until", "sim.engine:Engine.run_until")
    tracer.wrap(CacheHierarchy, "access", "cache:CacheHierarchy.access")
    tracer.wrap(MemoryController, "try_enqueue", "dram:MemoryController.try_enqueue")
    tracer.wrap(StreamWorkload, "next_access", NEXT_ACCESS)
    tracer.wrap(ChaserWorkload, "next_access", NEXT_ACCESS)
    tracer.wrap(Stats, "close_epoch", "sim.stats:Stats.close_epoch")
    classes = {QoSMechanism}
    for factory in MECHANISMS.values():
        if isinstance(factory, type):
            classes.update(
                klass
                for klass in factory.__mro__
                if issubclass(klass, QoSMechanism)
            )
    for klass in sorted(classes, key=lambda k: k.__qualname__):
        layer = "core" if issubclass(klass, PabstMechanism) else "mechanisms"
        for method in ("request_release", "on_response", "on_epoch"):
            if method in klass.__dict__:
                tracer.wrap(klass, method, f"{layer}:{klass.__name__}.{method}")


# ----------------------------------------------------------------------
# cProfile grouping
# ----------------------------------------------------------------------

#: First path segment(s) under ``src/repro`` -> reported layer.
_LAYER_OF = {
    "sim/engine.py": "engine",
    "sim/topology.py": "topology",
    "sim/stats.py": "stats",
    "sim": "system",
    "obs": "stats",
    "cpu": "cpu",
    "workloads": "workloads",
    "cache": "cache",
    "dram": "dram",
    "core": "core",
    "qos": "core",
    "mechanisms": "mechanisms",
    "baselines": "mechanisms",
}


def layer_of(filename: str) -> str | None:
    """Layer of a source file, or None outside the ``repro`` package."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    rel = parts[len(parts) - parts[::-1].index("repro"):]
    if not rel:
        return None
    return _LAYER_OF.get("/".join(rel[:2]), _LAYER_OF.get(rel[0], "other"))


def profile_layers(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer; time outside ``repro`` goes to its caller.

    Builtins, numpy and stdlib frames are charged to the layer of the
    ``repro`` function that called them (by the per-edge self time the
    profiler keeps), so ``rng.integers`` counts as ``workloads`` and a
    list sort in the system's response flush as ``system``.
    """
    totals: dict[str, float] = {}
    for func, (_, _, tottime, _, callers) in stats.stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + tottime
            continue
        for caller, edge in callers.items():
            owner = layer_of(caller[0]) or "other"
            totals[owner] = totals.get(owner, 0.0) + edge[2]
    return totals
