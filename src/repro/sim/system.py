"""System builder and runner.

``System`` wires the full machine of Fig. 2 — cores with private L2s, a
shared sliced L3 over a latency-modelled mesh, and per-channel memory
controllers — and threads a pluggable :class:`~repro.sim.mechanism.QoSMechanism`
through the three points PABST instruments:

* the L2 miss path (source pacing),
* the response path (L3-hit undo and writeback charging),
* the memory-controller scheduler (target arbitration).

Two queueing details matter for reproducing the paper's motivation figure:
requests that find a full MC front-end queue wait in a FIFO *outside* the
controller (so a target-only arbiter cannot reorder them — the Fig. 1b
failure), and the MSHR file caps each core's outstanding misses (so a
latency-sensitive workload's bandwidth collapses with latency — Fig. 1c).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from functools import partial
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Callable

from repro.cache.hierarchy import CacheHierarchy, HierarchyOutcome, HitLevel
from repro.cache.partition import WayPartition
from repro.core.saturation import SaturationMonitor
from repro.cpu.model import Core
from repro.cpu.mshr import AllocationResult, MshrFile
from repro.dram.controller import MemoryController
from repro.obs.registry import Registry
from repro.qos.classes import QoSRegistry
from repro.qos.monitor import BandwidthMonitor
from repro.sim.config import SystemConfig
from repro.accel import make_engine
from repro.sim.mechanism import QoSMechanism
from repro.sim.records import AccessType, MemoryRequest
from repro.sim.stats import Stats
from repro.sim.topology import AddressMap, MeshTopology
from repro.workloads.base import Access, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import RequestTracer

__all__ = ["System"]

_BY_NOC_SEQ = attrgetter("noc_seq")
_BY_KEY = itemgetter(0)


class System:
    """A complete simulated machine executing one workload per core."""

    def __init__(
        self,
        config: SystemConfig,
        registry: QoSRegistry,
        workloads: dict[int, Workload],
        mechanism: QoSMechanism | None = None,
        seed: int = 0,
        sample_latencies: bool = False,
        sanitize: bool = False,
        tracer: RequestTracer | None = None,
    ) -> None:
        if not workloads:
            raise ValueError("need at least one core running a workload")
        # The mechanism is resolved first so machine-level mechanisms can
        # rewrite the config before anything is built from it (the static
        # bandwidth partition scales DRAM timings here).  The base class
        # returns the config unchanged.
        self.mechanism = mechanism if mechanism is not None else QoSMechanism()
        config = self.mechanism.prepare_config(config, registry)
        for core_id in workloads:
            if not 0 <= core_id < config.cores:
                raise ValueError(f"core {core_id} outside config.cores={config.cores}")
            registry.class_of_core(core_id)  # raises if unassigned

        self.config = config
        self.registry = registry
        # backend factory: the pure Engine or its C-backed twin, per the
        # process's active repro.accel selection
        self.engine = make_engine(seed)
        if sanitize:
            # imported on request: a plain run never loads the checker
            from repro.sim.sanitizer import SimSanitizer

            self.engine.sanitizer = SimSanitizer()
        if tracer is not None:
            self.engine.tracer = tracer
        self.stats = Stats(sample_latencies=sample_latencies)
        self.topology = MeshTopology(config)
        self.address_map = AddressMap(config, num_slices=config.cores)
        self.hierarchy = CacheHierarchy(
            config, self.address_map, self._build_partition()
        )
        # hot-path bindings: these run once per demand access / response
        self._l2s = self.hierarchy.l2s
        self._l2_miss = self.hierarchy.l2_miss
        self._decode = self.address_map.decode
        self._line_shift = self.address_map._line_shift
        self._l2_latency = config.l2_latency
        self._line_bytes = config.line_bytes
        # Cumulative route-delay tables for the fused injection fast path:
        # the L2-miss hop chains have no arbitration point, so their total
        # latency is a pure lookup at injection time.
        self._hit_delay, self._miss_delay = self.topology.fused_route_tables(
            config.l3_latency
        )

        self.controllers = [
            MemoryController(self.engine, mc_id, config, self.address_map, self.stats)
            for mc_id in range(config.num_mcs)
        ]
        # Overflow for requests that found a full front-end queue.  Reads
        # back up in per-source FIFOs admitted round-robin (modelling NoC
        # injection arbitration: each core gets a fair share of slots, but
        # no slot ever reflects QoS priority -- the Fig. 1b failure mode);
        # writes back up in one FIFO per controller.
        self._mc_pending_reads: list[dict[int, deque[MemoryRequest]]] = [
            {} for _ in range(config.num_mcs)
        ]
        # Sorted ring of source cores with a non-empty pending queue, one
        # per controller.  Maintained incrementally (insort on first
        # enqueue, removal on drain) so the round-robin admission loop
        # never re-sorts the source list.
        self._mc_read_sources: list[list[int]] = [
            [] for _ in range(config.num_mcs)
        ]
        self._mc_rr_pointer: list[int] = [0] * config.num_mcs
        self._mc_pending_writes: list[deque[MemoryRequest]] = [
            deque() for _ in range(config.num_mcs)
        ]
        # NoC injection sequence, stamped on every request entering the
        # network.  The ingress pumps sort arrivals on it, so admission
        # order is a pure function of the traffic, not of the order the
        # delivery events happened to be inserted.
        self._noc_seq = 0
        # per-MC ingress pump state: same-cycle arrivals buffer here and a
        # late-phase pump admits them (backlog first, then arrivals in
        # noc_seq order); a space hint from the controller re-runs the
        # backlog admission through the same pump
        self._mc_arrivals: list[list[MemoryRequest]] = [
            [] for _ in range(config.num_mcs)
        ]
        self._mc_pump_armed = [False] * config.num_mcs
        self._mc_space_hint = [False] * config.num_mcs
        # response inbox: every response landing at the source in cycle T
        # buffers here and a late-phase flush delivers the batch in a
        # canonical key order (L3 hits by injection order, then memory
        # reads by (mc, bus-slot end))
        self._resp_inbox: list[tuple] = []
        for controller in self.controllers:
            controller.on_read_complete = self._on_read_complete
            controller.add_space_listener(self._on_mc_space)

        self.cores: dict[int, Core] = {
            core_id: Core(
                engine=self.engine,
                core_id=core_id,
                qos_id=registry.class_of_core(core_id),
                workload=workload,
                access_fn=self._core_access,
                on_instructions=self.stats.record_instructions,
                class_stats_lookup=self.stats.class_stats,
            )
            for core_id, workload in sorted(workloads.items())
        }
        self._mshrs = {
            core_id: MshrFile(config.l2_mshrs) for core_id in self.cores
        }
        self._stalled: dict[int, deque] = {core_id: deque() for core_id in self.cores}

        # Fuse the deterministic read-return chain (bank service -> NoC
        # return -> core response) now that the cores exist.  Absent or
        # zero-return-delay cores keep the unfused on_read_complete path.
        core_list = [self.cores.get(core_id) for core_id in range(config.cores)]
        for controller in self.controllers:
            controller.configure_read_fusion(
                return_delays=[
                    self.topology.tile_to_mc_latency(core_id, controller.mc_id)
                    for core_id in range(config.cores)
                ],
                cores=core_list,
                respond=self._enqueue_response,
            )

        self.saturation = SaturationMonitor(self.controllers)
        self.bandwidth_monitor = BandwidthMonitor(
            self.stats, peak_bytes_per_cycle=config.peak_bandwidth
        )

        self.mechanism.attach(self)
        for controller in self.controllers:
            policy = self.mechanism.mc_policy(controller.mc_id)
            if policy is not None:
                controller.policy = policy

        # Observability registry: pull-based (obj, attr) providers over
        # the counters the components maintain anyway, so registration
        # adds no hot-path work (DESIGN.md §8).
        self.obs = Registry()
        self._register_obs()

        self._epochs_started = False
        self._next_epoch_at = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_partition(self) -> WayPartition | None:
        """Exclusive L3 way partition from the classes' ``l3_ways`` fields."""
        way_counts = {
            qos_class.qos_id: qos_class.l3_ways
            for qos_class in self.registry.classes
            if qos_class.l3_ways is not None
        }
        if not way_counts:
            return None
        return WayPartition.exclusive(self.config.l3_assoc, way_counts)

    def _register_obs(self) -> None:
        """Register every component's counters/gauges on :attr:`obs`.

        Names are stable dotted paths — tests and external tooling key
        on them — and all values come from attributes the components
        already maintain, so this method is pure bookkeeping.
        """
        obs = self.obs
        obs.register_counter("stats.requests_enqueued", self.stats, "requests_enqueued")
        obs.register_counter("stats.requests_rejected", self.stats, "requests_rejected")
        obs.register_counter("stats.bus_busy_cycles", self.stats, "bus_busy_cycles")
        obs.register_counter("stats.mc_active_cycles", self.stats, "mc_active_cycles")
        # Dispatch-loop fast-path coverage: zero on the pure backend (the
        # attributes exist on both engine classes), live counts under c.
        obs.register_counter("accel.fastpath_hits", self.engine, "fastpath_hits")
        obs.register_counter("accel.fastpath_misses", self.engine, "fastpath_misses")
        for controller in self.controllers:
            prefix = f"mc{controller.mc_id}"
            obs.register_counter(f"{prefix}.reads_accepted", controller, "reads_accepted")
            obs.register_counter(f"{prefix}.writes_accepted", controller, "writes_accepted")
            obs.register_counter(f"{prefix}.rejects", controller, "rejects")
            obs.register_gauge(f"{prefix}.queue_depth", controller, "queued_reads")
            obs.register_gauge(f"{prefix}.queued_writes", controller, "queued_writes")
            obs.register_gauge(f"{prefix}.inflight", controller, "inflight")
        for core_id, mshr in self._mshrs.items():
            obs.register_gauge(f"mshr.c{core_id}.outstanding", mshr, "outstanding")
        for core_id in self.cores:
            l2 = self._l2s[core_id]
            obs.register_counter(f"l2.c{core_id}.hits", l2, "hits")
            obs.register_counter(f"l2.c{core_id}.misses", l2, "misses")
        for tile, l3_slice in enumerate(self.hierarchy.l3_slices):
            obs.register_counter(f"l3.s{tile}.hits", l3_slice, "hits")
            obs.register_counter(f"l3.s{tile}.misses", l3_slice, "misses")
        self.mechanism.register_obs(obs)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` (callable repeatedly).

        Epoch ticks are driven by this loop, not by a self-reposting
        event: the engine runs to each boundary minus one, the clock is
        advanced onto the boundary, and the tick runs before any of the
        boundary cycle's events.  Driving the tick from outside the
        event queue pins its position in the schedule (start-of-cycle,
        always), which a queued tick cannot guarantee once it round-trips
        through the overflow heap.
        """
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        for core in self.cores.values():
            core.start()
        engine = self.engine
        if not self._epochs_started:
            self._epochs_started = True
            self._next_epoch_at = engine.now + self.config.epoch_cycles
        end = engine.now + cycles
        while self._next_epoch_at <= end:
            boundary = self._next_epoch_at
            engine.run_until(boundary - 1)
            engine.advance_clock(boundary)
            self._epoch_tick()
            self._next_epoch_at = boundary + self.config.epoch_cycles
        engine.run_until(end)

    def run_epochs(self, epochs: int) -> None:
        """Advance by a whole number of QoS epochs."""
        self.run(epochs * self.config.epoch_cycles)

    def finalize(self) -> None:
        """Close open accounting windows; call once after the last run()."""
        for controller in self.controllers:
            controller.finalize()
        if self.engine.sanitizer is not None:
            self.engine.sanitizer.on_run_end(self.stats)

    def _epoch_tick(self) -> None:
        """One epoch boundary: sample saturation, drive the mechanism,
        close the stats window.  Runs at start-of-boundary-cycle, before
        any of that cycle's events (see :meth:`run`)."""
        saturated = self.saturation.sample()
        self.mechanism.on_epoch(saturated, tuple(self.saturation.last_signals))
        self.stats.close_epoch(
            self.engine.now,
            saturated=saturated,
            multiplier=self.mechanism.multiplier(),
        )

    # ------------------------------------------------------------------
    # memory-access path (called by cores)
    # ------------------------------------------------------------------
    def _core_access(
        self, core: Core, access: Access, done: Callable[[], None]
    ) -> None:
        # Inlined L2-hit probe (mirrors SetAssociativeCache.lookup()): the
        # L2 hit is the dominant memory outcome, and taking it without the
        # hierarchy + cache frames is measurable at every-access rates.  A
        # probe miss continues in CacheHierarchy.l2_miss, which does not
        # probe the L2 again.
        addr = access.addr
        l2 = self._l2s[core.core_id]
        line_number = addr >> self._line_shift
        set_index = line_number & l2._set_mask
        recency = l2._sets[set_index]
        way = recency.pop(line_number, None)
        if way is not None:
            recency[line_number] = way
            if access.is_write:
                l2._state[set_index * l2.assoc + way] |= 1
            l2.hits += 1
            self.engine.post(self._l2_latency, done)
            return
        outcome = self._l2_miss(core.core_id, addr, access.is_write, core.qos_id)
        self._start_miss(core, access, outcome, done)

    def _start_miss(
        self,
        core: Core,
        access: Access,
        outcome: HierarchyOutcome,
        done: Callable[[], None],
    ) -> None:
        line = access.addr >> self._line_shift
        result = self._mshrs[core.core_id].allocate(line, done)
        if result is AllocationResult.FULL:
            self._stalled[core.core_id].append((core, access, outcome, done))
            return
        if result is AllocationResult.MERGED:
            return
        self._launch(core, access, outcome)

    def _launch(self, core: Core, access: Access, outcome: HierarchyOutcome) -> None:
        req = MemoryRequest(
            addr=access.addr,
            access=AccessType.READ,
            qos_id=core.qos_id,
            core_id=core.core_id,
            size=self._line_bytes,
        )
        req.created_at = self.engine._now
        req.l3_hit = outcome.level is HitLevel.L3
        req.caused_writeback = bool(outcome.mem_writebacks)
        if self.engine.sanitizer is not None:
            self.engine.sanitizer.on_inject(req)
        if self.engine.tracer is not None:
            self.engine.tracer.created(req)
        self.mechanism.request_release(
            core.core_id, req, partial(self._inject, core, req, outcome)
        )

    def _inject(self, core: Core, req: MemoryRequest, outcome: HierarchyOutcome) -> None:
        """The request passed the pacer and enters the SoC network."""
        engine = self.engine
        req.released_at = engine._now
        req.noc_seq = self._noc_seq
        self._noc_seq += 1
        if engine.tracer is not None:
            engine.tracer.released(req)
        core_id = core.core_id
        route = outcome.route
        slice_tile = route[0]
        if req.l3_hit:
            engine.post(
                self._hit_delay[core_id][slice_tile], self._enqueue_response, core, req
            )
        else:
            # the hierarchy decoded the line once on the L2 miss; its route
            # stamps mc/bank/row, so the controller's accept path never
            # decodes
            _, mc_id, req.bank_id, req.row_id = route
            req.mc_id = mc_id
            engine.post(
                self._miss_delay[core_id][slice_tile][mc_id], self._deliver, req
            )
        # an L3 hit writes back too: its dirty L2 victim may push a dirty
        # L3 line out to memory
        for line_addr in outcome.mem_writebacks:
            self._send_writeback(core, line_addr, slice_tile)

    def _send_writeback(self, core: Core, addr: int, slice_tile: int) -> None:
        """Dirty L3 eviction: a memory write, attributed per Section V-C.

        The class whose demand caused the eviction pays, both in bandwidth
        attribution and via the response flag that makes its pacer charge
        an extra period (:meth:`_launch` sets ``caused_writeback``).  An
        L3 hit's response only uncharges its pacer, so a write behind an
        L3 hit is attributed but not charged a period.
        """
        wb = MemoryRequest(
            addr=addr,
            access=AccessType.WRITEBACK,
            qos_id=core.qos_id,
            core_id=core.core_id,
            size=self.config.line_bytes,
        )
        wb.created_at = self.engine._now
        wb.released_at = self.engine._now
        wb.noc_seq = self._noc_seq
        self._noc_seq += 1
        _, wb.mc_id, wb.bank_id, wb.row_id = self._decode(addr)
        if self.engine.sanitizer is not None:
            self.engine.sanitizer.on_inject(wb)
        if self.engine.tracer is not None:
            self.engine.tracer.created(wb)
            self.engine.tracer.released(wb)
        delay = self.topology.tile_to_mc_latency(slice_tile, wb.mc_id)
        self.engine.post(delay, self._deliver, wb)

    def _deliver(self, req: MemoryRequest) -> None:  # repro: native-kernel
        """Arrival at the MC edge: buffer it and arm this cycle's pump.

        All of a cycle's arrivals admit together in the late phase, in
        ``noc_seq`` order, so the admission sequence (and therefore the
        arbiter's virtual-deadline assignment) never depends on the
        order their delivery events were inserted.
        """
        buf = self._mc_arrivals[req.mc_id]
        buf.append(req)
        if not self._mc_pump_armed[req.mc_id]:
            self._mc_pump_armed[req.mc_id] = True
            self.engine.post_late_at(self.engine._now, self._pump_mc, req.mc_id)

    def _pump_mc(self, mc_id: int) -> None:  # repro: native-kernel
        """Late-phase ingress pump for one MC.

        Backlogged requests admit first (they are older than anything
        arriving this cycle), then the cycle's arrivals in ``noc_seq``
        order.  The pump re-arms itself (via the space hint) if admission
        triggers a scheduling pass that frees more queue space within
        the same late phase.
        """
        self._mc_pump_armed[mc_id] = False
        controller = self.controllers[mc_id]
        if self._mc_space_hint[mc_id]:
            self._mc_space_hint[mc_id] = False
            self._admit_pending_reads(mc_id)
            pending_writes = self._mc_pending_writes[mc_id]
            while pending_writes:
                if not controller.try_enqueue(pending_writes[0]):
                    break
                pending_writes.popleft()
        buf = self._mc_arrivals[mc_id]
        if not buf:
            return
        arrivals = buf[:]
        buf.clear()
        arrivals.sort(key=_BY_NOC_SEQ)
        pending_reads = self._mc_pending_reads[mc_id]
        for req in arrivals:
            if req.is_memory_write:
                pending = self._mc_pending_writes[mc_id]
                if pending or not controller.try_enqueue(req):
                    pending.append(req)
                continue
            per_core = pending_reads.get(req.core_id)
            if per_core:
                per_core.append(req)
            elif not controller.try_enqueue(req):
                self._queue_pending_read(mc_id, req)

    def _queue_pending_read(self, mc_id: int, req: MemoryRequest) -> None:
        """Append a backpressured read to its source's overflow FIFO.

        Single point that keeps ``_mc_pending_reads`` and the sorted
        ``_mc_read_sources`` admission ring consistent.
        """
        pending = self._mc_pending_reads[mc_id]
        per_core = pending.get(req.core_id)
        if per_core is None:
            per_core = deque()
            pending[req.core_id] = per_core
            insort(self._mc_read_sources[mc_id], req.core_id)
        per_core.append(req)

    def _admit_pending_reads(self, mc_id: int) -> None:
        """Round-robin one-per-core admission of backpressured reads.

        ``_mc_read_sources[mc_id]`` is kept sorted incrementally, so each
        admission pass rotates a snapshot of the ring at the RR pointer
        (one bisect) instead of re-sorting the source list per pass.
        """
        controller = self.controllers[mc_id]
        pending = self._mc_pending_reads[mc_id]
        sources = self._mc_read_sources[mc_id]
        while sources:
            start = bisect_left(sources, self._mc_rr_pointer[mc_id])
            ordered = sources[start:] + sources[:start]
            admitted_any = False
            for core in ordered:
                queue = pending[core]
                if not controller.try_enqueue(queue[0]):
                    return
                queue.popleft()
                if not queue:
                    del pending[core]
                    del sources[bisect_left(sources, core)]
                self._mc_rr_pointer[mc_id] = core + 1
                admitted_any = True
            if not admitted_any:
                return

    def _on_mc_space(self, mc_id: int) -> None:  # repro: native-kernel
        """Synchronous space hint from the controller: run the pump late.

        Called inline from the controller's scheduling pass the moment a
        read issues.  The actual admission happens in the pump, so
        backlog admission order is canonical no matter which pass
        produced the hint.  Without a backlog there is nothing to admit:
        only a pump adds to the backlog, and this cycle's arrivals admit
        through the pump their delivery armed.
        """
        if not (self._mc_read_sources[mc_id] or self._mc_pending_writes[mc_id]):
            return
        self._mc_space_hint[mc_id] = True
        if not self._mc_pump_armed[mc_id]:
            self._mc_pump_armed[mc_id] = True
            self.engine.post_late_at(self.engine._now, self._pump_mc, mc_id)

    def _on_read_complete(self, req: MemoryRequest) -> None:
        core = self.cores.get(req.core_id)
        if core is None:
            return
        delay = self.topology.tile_to_mc_latency(core.core_id, req.mc_id)
        self.engine.post(delay, self._enqueue_response, core, req)

    def _enqueue_response(self, core: Core, req: MemoryRequest) -> None:  # repro: native-kernel
        """Buffer a response arriving at the source tile this cycle.

        The late-phase flush delivers the cycle's batch in one canonical
        order: L3 hits by injection sequence first, then memory reads by
        ``(mc_id, bus-slot end)`` — every key is unique (the data bus
        serializes completions per MC), so the sort is total and the
        delivery order is independent of event insertion order.
        """
        inbox = self._resp_inbox
        if not inbox:
            self.engine.post_late_at(self.engine._now, self._flush_responses)
        if req.l3_hit:
            inbox.append(((0, req.noc_seq, 0), core, req))
        else:
            inbox.append(((1, req.mc_id, req.completed_at), core, req))

    def _flush_responses(self) -> None:  # repro: native-kernel
        inbox = self._resp_inbox
        self._resp_inbox = []
        inbox.sort(key=_BY_KEY)
        for _, core, req in inbox:
            self._respond(core, req)

    def _respond(self, core: Core, req: MemoryRequest) -> None:
        """Response reached the source tile: notify mechanism, wake waiters."""
        if req.completed_at < 0:
            req.completed_at = self.engine._now  # L3 hit completes locally
            if self.engine.sanitizer is not None:
                self.engine.sanitizer.on_complete(req)
            if self.engine.tracer is not None:
                self.engine.tracer.completed(req)
        self.mechanism.on_response(core.core_id, req)
        line = req.addr >> self._line_shift
        for callback in self._mshrs[core.core_id].complete(line):
            callback()
        self._drain_stalled(core.core_id)

    def _drain_stalled(self, core_id: int) -> None:
        queue = self._stalled[core_id]
        mshrs = self._mshrs[core_id]
        while queue:
            core, access, outcome, done = queue[0]
            line = access.addr >> self._line_shift
            result = mshrs.allocate(line, done)
            if result is AllocationResult.FULL:
                return
            queue.popleft()
            if result is AllocationResult.NEW:
                self._launch(core, access, outcome)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def peak_bandwidth(self) -> float:
        return self.config.peak_bandwidth

    def blocked_at_mc(self, mc_id: int) -> int:
        """Requests queued outside a full controller (not arbitrable)."""
        reads = sum(len(q) for q in self._mc_pending_reads[mc_id].values())
        return reads + len(self._mc_pending_writes[mc_id])
