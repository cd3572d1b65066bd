"""Statistics collection for simulated runs.

The statistics layer is deliberately passive: components call ``record_*``
hooks, and the analysis layer (:mod:`repro.analysis`) turns the raw counters
into the metrics the paper reports (bandwidth shares, weighted slowdown,
memory efficiency, service-time percentiles).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.obs.streams import epoch_record
from repro.sim.records import MemoryRequest

__all__ = ["ClassStats", "EpochSample", "Stats"]


@dataclass(slots=True)
class ClassStats:
    """Cumulative counters for one QoS class.

    The ``stage_*`` sums decompose DRAM-read latency along the request
    path (pacer wait, interconnect, controller queueing, bank+bus
    service); they cover only reads that reached memory with full
    timestamps, counted by ``reads_attributed``.  A read completed with
    *partial* timestamps counts toward ``reads_unattributed`` instead —
    in a healthy run that counter stays 0 (every read the controller
    retires has the full stamp chain), so a nonzero value flags a
    lifecycle-stamping bug and trips the sanitizer's run-end check.
    """

    qos_id: int
    bytes_read: int = 0
    bytes_written: int = 0
    reads_completed: int = 0
    writes_completed: int = 0
    instructions: int = 0
    read_latency_sum: int = 0
    read_latency_max: int = 0
    reads_attributed: int = 0
    reads_unattributed: int = 0
    stage_pacer_sum: int = 0
    stage_noc_sum: int = 0
    stage_queue_sum: int = 0
    stage_service_sum: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def mean_read_latency(self) -> float:
        if self.reads_completed == 0:
            return 0.0
        return self.read_latency_sum / self.reads_completed


@dataclass(slots=True)
class EpochSample:
    """Per-epoch snapshot used to build bandwidth timelines (Figs. 5/6/8)."""

    epoch: int
    start_cycle: int
    end_cycle: int
    bytes_by_class: dict[int, int]
    saturated: bool = False
    multiplier: int = -1

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def bandwidth(self, qos_id: int) -> float:
        """Bytes per cycle consumed by ``qos_id`` during this epoch."""
        if self.cycles <= 0:
            return 0.0
        return self.bytes_by_class.get(qos_id, 0) / self.cycles


class Stats:
    """Aggregated run statistics.

    One instance is shared by every component in a :class:`~repro.sim.system.System`.
    """

    def __init__(self, sample_latencies: bool = False) -> None:
        self.classes: dict[int, ClassStats] = {}
        self.epochs: list[EpochSample] = []
        self.sample_latencies = sample_latencies
        #: per-class read latencies in completion order, when sampling;
        #: a typed array holds a sample in 8 bytes instead of a boxed int
        self.read_latencies: dict[int, array] = {}
        self._epoch_bytes: dict[int, int] = {}
        self._last_epoch_end = 0
        # memory-controller aggregates (filled in by controllers)
        self.bus_busy_cycles = 0
        self.mc_active_cycles = 0
        self.requests_enqueued = 0
        self.requests_rejected = 0
        # epoch metric sinks (repro.obs.streams); close_epoch publishes
        # one record per sink per epoch boundary
        self._sinks: list = []

    # ------------------------------------------------------------------
    # recording hooks
    # ------------------------------------------------------------------
    def class_stats(self, qos_id: int) -> ClassStats:
        stats = self.classes.get(qos_id)
        if stats is None:
            stats = ClassStats(qos_id=qos_id)
            self.classes[qos_id] = stats
        return stats

    def record_completion(self, req: MemoryRequest) -> None:
        """Account a finished memory transaction to its QoS class."""
        # inlined class_stats(): one call per completed transaction
        qos_id = req.qos_id
        stats = self.classes.get(qos_id)
        if stats is None:
            stats = ClassStats(qos_id=qos_id)
            self.classes[qos_id] = stats
        if req.is_read:
            stats.bytes_read += req.size
            stats.reads_completed += 1
            # inlined req.total_latency: the controller stamped
            # completed_at immediately before calling this
            latency = req.completed_at - req.created_at
            stats.read_latency_sum += latency
            if latency > stats.read_latency_max:
                stats.read_latency_max = latency
            if self.sample_latencies:
                samples = self.read_latencies.get(qos_id)
                if samples is None:
                    samples = self.read_latencies[qos_id] = array("q")
                samples.append(latency)
            # Attribution needs every intermediate stamp: a request with
            # issued_at set but arrived_mc_at unset would otherwise fold
            # the -1 sentinel into the noc/queue sums (they would still
            # total the end-to-end latency, but the per-stage split would
            # be silently wrong).  Partial-stamp reads are counted, not
            # dropped, so reads_attributed + reads_unattributed ==
            # reads_completed holds and the sanitizer can check it.
            if (
                req.released_at >= 0
                and req.arrived_mc_at >= 0
                and req.issued_at >= 0
            ):
                stats.reads_attributed += 1
                stats.stage_pacer_sum += req.released_at - req.created_at
                stats.stage_noc_sum += req.arrived_mc_at - req.released_at
                stats.stage_queue_sum += req.issued_at - req.arrived_mc_at
                stats.stage_service_sum += req.completed_at - req.issued_at
            else:
                stats.reads_unattributed += 1
        else:
            stats.bytes_written += req.size
            stats.writes_completed += 1
        epoch_bytes = self._epoch_bytes
        epoch_bytes[qos_id] = epoch_bytes.get(qos_id, 0) + req.size

    def record_instructions(self, qos_id: int, count: int) -> None:
        self.class_stats(qos_id).instructions += count

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def add_sink(self, sink) -> None:
        """Attach an epoch metric sink (anything with ``publish(record)``).

        Each subsequent :meth:`close_epoch` publishes one
        :func:`repro.obs.streams.epoch_record` to every attached sink.
        """
        self._sinks.append(sink)

    @property
    def sinks(self) -> tuple:
        return tuple(self._sinks)

    def close_epoch(self, now: int, saturated: bool = False, multiplier: int = -1) -> EpochSample:
        """Snapshot per-class bytes since the previous epoch boundary."""
        sample = EpochSample(
            epoch=len(self.epochs),
            start_cycle=self._last_epoch_end,
            end_cycle=now,
            # canonical key order: the dict's insertion order otherwise
            # reflects which class completed a request first, an accident
            # of event-insertion history
            bytes_by_class=dict(sorted(self._epoch_bytes.items())),
            saturated=saturated,
            multiplier=multiplier,
        )
        self.epochs.append(sample)
        self._epoch_bytes = {}
        self._last_epoch_end = now
        if self._sinks:
            record = epoch_record(sample)
            for sink in self._sinks:
                sink.publish(record)
        return sample

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def total_bytes(self, qos_id: int | None = None) -> int:
        if qos_id is not None:
            return self.class_stats(qos_id).total_bytes
        return sum(stats.total_bytes for stats in self.classes.values())

    def bandwidth_share(self, qos_id: int) -> float:
        """Fraction of all transferred bytes consumed by ``qos_id``."""
        total = self.total_bytes()
        if total == 0:
            return 0.0
        return self.class_stats(qos_id).total_bytes / total

    def memory_efficiency(self) -> float:
        """Data-bus busy cycles over cycles with pending MC work (Fig. 12).

        Deliberately unclamped: a ratio above 1.0 means ``bus_busy_cycles``
        was double-counted (or active-cycle tracking lost time) and should
        surface, not saturate at a plausible-looking 1.0.  The sanitizer
        asserts ``bus_busy_cycles <= mc_active_cycles`` at run end.
        """
        if self.mc_active_cycles == 0:
            return 0.0
        return self.bus_busy_cycles / self.mc_active_cycles

    def ipc(self, qos_id: int, cycles: int) -> float:
        """Instructions per cycle for a class over ``cycles``."""
        if cycles <= 0:
            return 0.0
        return self.class_stats(qos_id).instructions / cycles
