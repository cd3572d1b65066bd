"""Two-level cache hierarchy: private L2s over a shared, sliced L3.

This is the functional (hit/miss and writeback) half of the memory system;
latencies are applied by :mod:`repro.sim.system`.  It implements the exact
traffic semantics PABST depends on:

* the L2 miss stream is what the source governor paces;
* an L3 hit must be reported back so the pacer can undo its charge
  (Section III-B3, "Accounting for Cache Filtering");
* a demand miss whose L3 fill evicts a dirty line generates a memory
  writeback charged to the demand request's class, and the response carries
  a flag so the pacer charges one extra period for it.

All demand requests to DRAM are reads (write-allocate); DRAM writes happen
only through dirty evictions, so a "write stream" naturally costs twice the
bandwidth of a read stream, as on real write-back hierarchies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.cache.cache import SetAssociativeCache
from repro.cache.partition import WayPartition
from repro.sim.config import SystemConfig
from repro.sim.topology import AddressMap, _mix_bits

__all__ = ["CacheHierarchy", "HierarchyOutcome", "HitLevel"]


class HitLevel(str, Enum):
    """Deepest level a demand access had to reach."""

    L2 = "l2"
    L3 = "l3"
    MEMORY = "memory"


@dataclass(slots=True)
class HierarchyOutcome:
    """Functional result of one demand access."""

    level: HitLevel
    l3_slice: int = -1
    #: line addresses of the dirty lines this access pushed out to memory
    mem_writebacks: list[int] = field(default_factory=list)

    @property
    def goes_to_memory(self) -> bool:
        return self.level is HitLevel.MEMORY

    @property
    def l2_miss(self) -> bool:
        return self.level is not HitLevel.L2


# Shared L2-hit outcome: callers never mutate outcomes and the L2-hit path
# carries no slice or writebacks, so one instance serves every hit.
_L2_HIT = HierarchyOutcome(level=HitLevel.L2)


class CacheHierarchy:
    """Private per-core L2 caches plus address-hashed shared L3 slices."""

    def __init__(
        self,
        config: SystemConfig,
        address_map: AddressMap,
        l3_partition: WayPartition | None = None,
        seed: int = 0,
    ) -> None:
        self._config = config
        self._address_map = address_map
        self.l3_partition = l3_partition
        self.l2s = [
            SetAssociativeCache(
                name=f"l2.{core}",
                num_sets=config.l2_sets,
                assoc=config.l2_assoc,
                line_bytes=config.line_bytes,
                seed=seed + core,
            )
            for core in range(config.cores)
        ]
        self.l3_slices = [
            SetAssociativeCache(
                name=f"l3.{tile}",
                num_sets=config.l3_slice_sets,
                assoc=config.l3_assoc,
                line_bytes=config.line_bytes,
                partition=l3_partition,
                seed=seed + 1000 + tile,
            )
            for tile in range(config.cores)
        ]
        # access() fast-path bindings.  Slice selection recomputes the hash
        # directly instead of going through AddressMap.decode: streaming
        # working sets are large enough that the decode memo rarely hits,
        # and the slice needs only one bit-mix, not the full
        # (slice, mc, bank, row) tuple.
        self._num_slices = len(self.l3_slices)
        self._line_shift = config.line_bytes.bit_length() - 1

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------
    def access(self, core_id: int, addr: int, is_write: bool, qos_id: int) -> HierarchyOutcome:
        """Run one demand access through L2 then (on miss) the L3 slice."""
        l2 = self.l2s[core_id]
        l2_result = l2.access(addr, is_write, qos_id)
        if l2_result.hit:
            return _L2_HIT

        writebacks: list[int] = []
        l3_slices = self.l3_slices
        num_slices = self._num_slices
        line_shift = self._line_shift
        # slice_of() without the decode wrapper or the (useless here) full
        # line decode — see the binding comment in __init__
        slice_id = _mix_bits(addr >> line_shift) % num_slices
        l3 = l3_slices[slice_id]

        # A dirty L2 victim is written into the L3 (it may itself push a
        # dirty L3 line out to memory).
        victim = l2_result.victim
        if victim is not None and victim.dirty:
            victim_slice = l3_slices[
                _mix_bits(victim.line_addr >> line_shift) % num_slices
            ]
            l3_victim = victim_slice.fill(victim.line_addr, victim.qos_id, dirty=True)
            if l3_victim is not None and l3_victim.dirty:
                writebacks.append(l3_victim.line_addr)

        l3_result = l3.access(addr, is_write=False, qos_id=qos_id)
        if l3_result.hit:
            return HierarchyOutcome(
                level=HitLevel.L3, l3_slice=slice_id, mem_writebacks=writebacks
            )
        if l3_result.dirty_eviction:
            assert l3_result.victim is not None
            writebacks.append(l3_result.victim.line_addr)
        return HierarchyOutcome(
            level=HitLevel.MEMORY, l3_slice=slice_id, mem_writebacks=writebacks
        )

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def l3_occupancy_by_class(self) -> dict[int, int]:
        """Aggregate per-class L3 occupancy across slices."""
        totals: dict[int, int] = {}
        for cache in self.l3_slices:
            for qos_id, count in cache.occupancy_by_class().items():
                totals[qos_id] = totals.get(qos_id, 0) + count
        return totals

    def l2_miss_rate(self, core_id: int) -> float:
        return self.l2s[core_id].miss_rate

    @property
    def l3_capacity_bytes(self) -> int:
        return sum(cache.capacity_bytes for cache in self.l3_slices)
