"""Memory controller with a queued front-end and a bank/bus back-end.

The structure follows Section III-C of the paper:

* A **front-end** accepts requests from the SoC network into separate read
  and write queues.  Both queues have finite capacity; when the read queue
  is full the controller exerts backpressure and requests pile up *outside*
  the controller (at the L3), which is exactly the condition under which
  target-only regulation breaks down (Fig. 1b).
* A **back-end** of banks and one shared data bus serves requests.  A
  request leaves the front-end at the moment its bank access begins, so the
  pluggable :class:`~repro.dram.schedulers.SchedulingPolicy` (FR-FCFS,
  FQM-style, or the PABST arbiter) always selects over every queued request
  whose bank is ready — see ``schedulers.py`` for why the selection point
  is unified.
* Reads have priority; writes drain in batches between a high and a low
  watermark (the paper leaves the baseline read/write switch unmodified).

Two timing rules keep the model honest:

* an access issues only when its bank-prep time covers the remaining
  data-bus backlog, so bus slots are never reserved far ahead of service
  (which would freeze the order and silently defeat arbitration);
* every scheduling pass re-arms a wakeup at the next bank-free or
  gate-open time, so queued work never stalls waiting for an unrelated
  event.

The controller also integrates its read-queue occupancy over time, which
the PABST saturation monitor samples at each epoch boundary.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import TYPE_CHECKING, Callable

from repro import accel
from repro.dram.bank import Bank
from repro.dram.channel import DataBus
from repro.dram.schedulers import FrFcfsPolicy, SchedulingPolicy
from repro.dram.timing import PagePolicy
from repro.sim.engine import _WHEEL_MASK, Engine
from repro.sim.records import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover - break the sim<->dram import cycle
    from repro.sim.config import SystemConfig
    from repro.sim.stats import Stats
    from repro.sim.topology import AddressMap

__all__ = ["MemoryController"]

#: "No wakeup needed" sentinel for the min-scan in ``_schedule_wakeup``
#: (compares greater than any reachable cycle count).
_FAR = 1 << 62


class MemoryController:
    """One DDR channel: front-end queues, banks, data bus, and a scheduler."""

    def __init__(
        self,
        engine: Engine,
        mc_id: int,
        config: "SystemConfig",
        address_map: "AddressMap",
        stats: "Stats",
        policy: SchedulingPolicy | None = None,
    ) -> None:
        self._engine = engine
        self.mc_id = mc_id
        self._config = config
        self._timing = config.dram
        self._map = address_map
        self._stats = stats
        self.policy: SchedulingPolicy = policy if policy is not None else FrFcfsPolicy()
        self.banks = [
            Bank(bank, self._timing, config.page_policy)
            for bank in range(config.banks_per_mc)
        ]
        self.bus = DataBus(self._timing.t_burst)
        # Derived timing constants for the scheduler's ready scan.  Under
        # the closed-page policy every access pays the same prep, so the
        # prep-vs-bus-backlog gate is request-independent.
        self._min_prep = self._timing.access_prep(row_hit=True)
        self._uniform_prep = (
            None
            if config.page_policy == PagePolicy.OPEN
            else self._timing.access_prep(row_hit=False)
        )
        # Compiled ready-scan kernels (repro.accel's extension module) or
        # None under the pure backend.  Bound once per controller: the
        # backend selection applies at system build time.
        self._ckern = accel.controller_kernels()
        # front-end queue capacities, flattened for the accept hot path
        self._read_capacity = config.frontend_read_queue
        self._write_capacity = config.frontend_write_queue
        self._wm_high = config.write_high_watermark
        self._wm_low = config.write_low_watermark
        # bank busy_until mirrored into a plain int list: the ready scan
        # and the wakeup computation touch it for every queued request on
        # every pass, where a list index beats an attribute load
        self._bank_busy = [0] * config.banks_per_mc
        # Ascending multiset of outstanding bank busy-until times, fed by
        # _issue and consumed by _schedule_wakeup.  A bank cannot be
        # re-issued before its previous busy window expires, so any entry
        # superseded by a newer issue to the same bank is already <= now
        # by the time a wakeup looks — pruning the expired prefix leaves
        # exactly the live busy times, and the head is the next bank-free
        # cycle without scanning every bank per pass.
        self._busy_times: list[int] = []
        self.read_queue: list[MemoryRequest] = []
        self.write_queue: list[MemoryRequest] = []
        self.on_read_complete: Callable[[MemoryRequest], None] | None = None
        self._space_listeners: list[Callable[[int], None]] = []
        self._draining_writes = False

        # hop fusion (configured by System once the cores exist): reads
        # whose return path has no arbitration point are issued as one
        # fused chain (bank completion + core response) instead of two
        # separately scheduled events — see configure_read_fusion().
        # Keyed by core_id; a miss (absent core, foreign injector id,
        # zero return delay) falls back to the unfused path.
        self._fused: dict[int, tuple] | None = None
        self._respond_fn: Callable | None = None

        # scheduling-pass coalescing: _pass_at is the armed pass time, and
        # _pass_token identifies the newest armed pass event — superseded
        # events dispatch, see their stale token, and return immediately
        # (cheaper than allocating a cancellable Event per arm)
        self._pass_at: int | None = None
        self._pass_token = 0

        # read-queue occupancy integral (for the saturation monitor)
        self._occ_integral = 0
        self._occ_last_update = 0
        self._occ_window_start = 0

        # activity tracking (denominator of memory efficiency, Fig. 12)
        self._inflight = 0
        self._active_since = -1
        self.active_cycles = 0

        # counters
        self.reads_accepted = 0
        self.writes_accepted = 0
        self.rejects = 0

    # ------------------------------------------------------------------
    # front-end
    # ------------------------------------------------------------------
    @property
    def read_queue_capacity(self) -> int:
        return self._config.frontend_read_queue

    def try_enqueue(self, req: MemoryRequest) -> bool:
        """Accept a request into the front-end; False means queue full."""
        now = self._engine._now
        if req.is_memory_write:
            if len(self.write_queue) >= self._write_capacity:
                self.rejects += 1
                self._stats.requests_rejected += 1
                return False
            target = self.write_queue
            self.writes_accepted += 1
        else:
            if len(self.read_queue) >= self._read_capacity:
                self.rejects += 1
                self._stats.requests_rejected += 1
                return False
            target = self.read_queue
            # inlined _update_occupancy() (before the append below)
            self._occ_integral += len(target) * (now - self._occ_last_update)
            self._occ_last_update = now
            self.reads_accepted += 1

        req.arrived_mc_at = now
        req.mc_id = self.mc_id
        if req.bank_id < 0:
            # injected requests arrive pre-decoded (the system stamps the
            # route when the request enters the NoC); only raw requests
            # from tests or direct callers pay the decode here
            _, _, req.bank_id, req.row_id = self._map.decode(req.addr)
        target.append(req)
        self._stats.requests_enqueued += 1
        self.policy.on_accept(req, now)
        if self._engine.sanitizer is not None:
            self._engine.sanitizer.on_accept(req)
        if self._engine.tracer is not None:
            self._engine.tracer.arrived(req)
        # inlined _note_arrival()
        if self._inflight == 0:
            self._active_since = now
        self._inflight += 1
        self._request_pass(now)
        return True

    def add_space_listener(self, callback: Callable[[int], None]) -> None:
        """Register a callback invoked synchronously when space frees up.

        Listeners must be cheap and must not re-enter the controller:
        the contract is "set a hint, arm a drain", nothing more.
        """
        self._space_listeners.append(callback)

    # ------------------------------------------------------------------
    # saturation-monitor interface
    # ------------------------------------------------------------------
    def sample_read_occupancy(self) -> float:
        """Average read-queue occupancy since the last sample."""
        now = self._engine._now
        self._update_occupancy()
        elapsed = now - self._occ_window_start
        average = self._occ_integral / elapsed if elapsed > 0 else float(
            len(self.read_queue)
        )
        self._occ_integral = 0
        self._occ_window_start = now
        return average

    def _update_occupancy(self) -> None:
        now = self._engine._now
        self._occ_integral += len(self.read_queue) * (now - self._occ_last_update)
        self._occ_last_update = now

    # ------------------------------------------------------------------
    # activity accounting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close open accounting intervals at the end of a run."""
        self._update_occupancy()
        if self._inflight > 0:
            delta = self._engine._now - self._active_since
            self.active_cycles += delta
            self._stats.mc_active_cycles += delta
            self._active_since = self._engine._now

    # ------------------------------------------------------------------
    # scheduling passes
    # ------------------------------------------------------------------
    def _request_pass(self, when: int) -> None:
        """Coalesce scheduling passes: keep at most one, at the earliest time."""
        if self._pass_at is not None and self._pass_at <= when:
            return
        self._pass_at = when
        token = self._pass_token + 1
        self._pass_token = token
        # inlined engine.post_at (the arm rate makes even the call overhead
        # measurable); `when` is always an int >= engine._now here, and pass
        # times are near-future, so the wheel-window fast path all but
        # always takes — post_at handles the overflow remainder
        engine = self._engine
        if when < engine._horizon:
            engine._wheel[when & _WHEEL_MASK].append((self._run_pass, (token,)))
            engine._wheel_count += 1
            engine._live += 1
        else:
            engine.post_at(when, self._run_pass, token)

    def _run_pass(self, token: int) -> None:  # repro: hot-kernel; repro: native-kernel
        if token != self._pass_token:
            return  # superseded by a later request for an earlier pass
        self._pass_at = None
        now = self._engine._now
        # watermark-based write-drain switch (inlined _update_write_mode)
        if self._draining_writes:
            if len(self.write_queue) <= self._wm_low:
                self._draining_writes = False
        elif len(self.write_queue) >= self._wm_high:
            self._draining_writes = True
        if not (self.read_queue or self.write_queue):
            # nothing queued: _issue_ready and _schedule_wakeup would both
            # no-op — skip their call frames on this common drained pass
            return
        issued_reads = self._issue_ready(now)
        if issued_reads:
            self._notify_space()
        # Always re-arm: queued work may be waiting on a bank recovery or on
        # the data-bus issue gate, neither of which produces its own event.
        self._schedule_wakeup(now)

    def _ready(self, queue: list[MemoryRequest], bus_backlog: int, now: int) -> list[MemoryRequest]:
        """Requests whose bank is free and whose prep covers the bus backlog."""
        kern = self._ckern
        if kern is not None:
            return kern.ready_scan(
                queue, self._bank_busy, self.banks,
                self._uniform_prep, bus_backlog, now,
            )
        busy = self._bank_busy
        uniform_prep = self._uniform_prep
        if uniform_prep is not None:
            # closed page: prep is the same for every request, so the bus
            # gate either blocks the whole queue or none of it
            if uniform_prep < bus_backlog:
                return []
            return [req for req in queue if busy[req.bank_id] <= now]
        banks = self.banks
        ready: list[MemoryRequest] = []
        for req in queue:
            if busy[req.bank_id] <= now and banks[req.bank_id].prep_cycles(req.row_id) >= bus_backlog:
                ready.append(req)
        return ready

    def _issue_ready(self, now: int) -> int:  # repro: hot-kernel
        """Serve ready requests until banks, bus, or queues run out.

        The ready lists are maintained incrementally across issues instead
        of rescanning both queues per pick.  Within one pass ``now`` is
        fixed, banks only become busier (the issued one), and the bus gate
        only tightens, so filtering the previous ready list is exactly
        equivalent to recomputing it from the full queue.
        """
        issued_reads = 0
        banks = self.banks
        uniform_prep = self._uniform_prep
        kern = self._ckern
        draining = self._draining_writes
        bus_backlog = self.bus.free_at - now
        read_queue = self.read_queue
        ready_reads = self._ready(read_queue, bus_backlog, now) if read_queue else []
        ready_writes: list[MemoryRequest] | None = None
        while True:
            if draining or not ready_reads:
                if ready_writes is None:
                    write_queue = self.write_queue
                    ready_writes = (
                        self._ready(write_queue, bus_backlog, now) if write_queue else []
                    )
                pool = ready_writes if ready_writes else ready_reads
            else:
                pool = ready_reads
            if not pool:
                return issued_reads
            req = self.policy.pick(pool, banks, now)
            self._issue(req, now)
            if req.is_read:
                issued_reads += 1
            bus_backlog = self.bus.free_at - now
            bank_id = req.bank_id
            if kern is not None:
                # compiled twin of both filter branches below (including
                # the closed-page all-or-nothing bus gate)
                ready_reads = kern.filter_ready(
                    ready_reads, req, banks, uniform_prep, bus_backlog
                )
                if ready_writes is not None:
                    ready_writes = kern.filter_ready(
                        ready_writes, req, banks, uniform_prep, bus_backlog
                    )
            elif uniform_prep is not None:
                if uniform_prep < bus_backlog:
                    ready_reads = []
                    if ready_writes is not None:
                        ready_writes = []
                else:
                    ready_reads = [
                        r for r in ready_reads
                        if r is not req and r.bank_id != bank_id
                    ]
                    if ready_writes is not None:
                        ready_writes = [
                            r for r in ready_writes
                            if r is not req and r.bank_id != bank_id
                        ]
            else:
                ready_reads = [
                    r for r in ready_reads
                    if r is not req and r.bank_id != bank_id
                    and banks[r.bank_id].prep_cycles(r.row_id) >= bus_backlog
                ]
                if ready_writes is not None:
                    ready_writes = [
                        r for r in ready_writes
                        if r is not req and r.bank_id != bank_id
                        and banks[r.bank_id].prep_cycles(r.row_id) >= bus_backlog
                    ]

    def _issue(self, req: MemoryRequest, now: int) -> None:
        bank = self.banks[req.bank_id]
        # closed page pays the uniform prep; open page probes the bank row
        prep = self._uniform_prep
        if prep is None:
            prep = bank.prep_cycles(req.row_id)
        # inlined DataBus.reserve()
        bus = self.bus
        data_start = now + prep
        if data_start < bus.free_at:
            data_start = bus.free_at
        burst = bus._burst
        data_end = data_start + burst
        bus.free_at = data_end
        bus.busy_cycles += burst
        bus.transfers += 1
        bank.issue(now, req.row_id, data_end)
        self._bank_busy[req.bank_id] = bank.busy_until
        insort(self._busy_times, bank.busy_until)
        req.dispatched_at = now
        req.issued_at = now
        if self._engine.sanitizer is not None:
            self._engine.sanitizer.on_issue(req)
        if self._engine.tracer is not None:
            self._engine.tracer.issued(req)
        self._stats.bus_busy_cycles += burst
        if req.is_memory_write:
            queue = self.write_queue
        else:
            # inlined _update_occupancy() (before the removal below)
            self._occ_integral += len(self.read_queue) * (
                now - self._occ_last_update
            )
            self._occ_last_update = now
            queue = self.read_queue
        # identity-based removal: list.remove() would re-scan with the
        # dataclass __eq__, comparing every field of every queued request
        for index, queued in enumerate(queue):
            if queued is req:
                del queue[index]
                break
        engine = self._engine
        if req.is_read and self._fused is not None:
            fused = self._fused.get(req.core_id)
            if fused is not None:
                # fused chain: bank completion at data_end, core response
                # NoC-return-delay cycles later, one scheduler insertion
                core, return_delay = fused
                engine.post_chain_at(
                    data_end,
                    self._complete_fused,
                    (req,),
                    return_delay,
                    self._respond_fn,
                    (core, req),
                )
                return
        # inlined engine.post_at; data_end is an int > now by construction
        # and within the wheel window (bus backlog is queue-bounded)
        if data_end < engine._horizon:
            engine._wheel[data_end & _WHEEL_MASK].append((self._complete, (req,)))
            engine._wheel_count += 1
            engine._live += 1
        else:
            engine.post_at(data_end, self._complete, (req,))

    def configure_read_fusion(
        self,
        return_delays: list[int],
        cores: list,
        respond: Callable,
    ) -> None:
        """Fuse bank-service -> NoC return -> core response into one chain.

        ``return_delays[c]`` is the fixed tile-to-MC NoC latency for core
        ``c`` and ``cores[c]`` the core object (None for absent cores —
        those reads fall back to the generic ``on_read_complete`` path).
        Cores with a zero return delay also stay unfused: a chain
        continuation must land strictly after the completion bucket.

        Fused and unfused paths write identical ``MemoryRequest`` stage
        timestamps and dispatch in identical order; fusion only halves
        the scheduling cost of the two-hop return.
        """
        self._fused = {
            core_id: (core, delay)
            for core_id, (core, delay) in enumerate(zip(cores, return_delays))
            if core is not None and delay >= 1
        }
        self._respond_fn = respond

    def _retire(self, req: MemoryRequest) -> None:
        """Completion bookkeeping shared by the fused and unfused paths."""
        now = self._engine._now
        req.completed_at = now
        if self._engine.sanitizer is not None:
            self._engine.sanitizer.on_complete(req)
        if self._engine.tracer is not None:
            self._engine.tracer.completed(req)
        self._stats.record_completion(req)
        # inlined _note_retirement()
        self._inflight -= 1
        if self._inflight == 0:
            delta = now - self._active_since
            self.active_cycles += delta
            self._stats.mc_active_cycles += delta

    def _complete(self, req: MemoryRequest) -> None:  # repro: native-kernel
        self._retire(req)
        if req.is_read and self.on_read_complete is not None:
            self.on_read_complete(req)
        self._request_pass(self._engine._now)

    def _complete_fused(self, req: MemoryRequest) -> None:  # repro: native-kernel
        # First hop of a fused read chain: identical to _complete except
        # that the engine schedules the core response itself (the chain
        # continuation replaces the on_read_complete -> post round trip).
        self._retire(req)
        self._request_pass(self._engine._now)

    def _schedule_wakeup(self, now: int) -> None:
        """Re-arm the pass at the next bank-free or bus-gate-open time."""
        if not (self.read_queue or self.write_queue):
            return
        # next bank-free time: prune the expired prefix of the sorted
        # busy-time list and read its head (see the __init__ comment for
        # why stale superseded entries are always in the pruned prefix)
        times = self._busy_times
        if times:
            cut = bisect_right(times, now)
            if cut:
                del times[:cut]
        wake = times[0] if times else _FAR
        bus_gate = self.bus.free_at - self._min_prep
        if now < bus_gate < wake:
            wake = bus_gate
        if wake != _FAR:
            # inlined _request_pass: _run_pass cleared _pass_at, so the
            # coalescing early-out can never take — arm unconditionally
            # (wheel insert inlined as in _request_pass; wake > now here)
            when = wake
            self._pass_at = when
            token = self._pass_token + 1
            self._pass_token = token
            engine = self._engine
            if when < engine._horizon:
                engine._wheel[when & _WHEEL_MASK].append(
                    (self._run_pass, (token,))
                )
                engine._wheel_count += 1
                engine._live += 1
            else:
                engine.post_at(when, self._run_pass, token)

    def _notify_space(self) -> None:
        # Synchronous hint: listeners only set a flag and arm a late-phase
        # drain, so calling them inline keeps the admission *work* out of
        # the scheduling pass while avoiding a queue round-trip whose
        # position would depend on event insertion order.
        for listener in self._space_listeners:
            listener(self.mc_id)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def queued_reads(self) -> int:
        return len(self.read_queue)

    @property
    def queued_writes(self) -> int:
        return len(self.write_queue)

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining_writes(self) -> bool:
        return self._draining_writes
