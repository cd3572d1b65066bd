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

from dataclasses import dataclass
from enum import Enum

from repro.cache.cache import SetAssociativeCache
from repro.cache.partition import WayPartition
from repro.sim.config import SystemConfig
from repro.sim.topology import AddressMap

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
    #: ``AddressMap.decode`` of the accessed line, ``(slice, mc, bank,
    #: row)``, for every access that missed the L2 (None on an L2 hit)
    route: tuple[int, int, int, int] | None = None
    #: line addresses of the dirty lines this access pushed out to memory
    mem_writebacks: tuple[int, ...] = ()


# Shared L2-hit outcome: callers never mutate outcomes and the L2-hit path
# carries no route or writebacks, so one instance serves every hit.
_L2_HIT = HierarchyOutcome(level=HitLevel.L2)


class CacheHierarchy:
    """Private per-core L2 caches plus address-hashed shared L3 slices."""

    def __init__(
        self,
        config: SystemConfig,
        address_map: AddressMap,
        l3_partition: WayPartition | None = None,
    ) -> None:
        self.l3_partition = l3_partition
        self.l2s = [
            SetAssociativeCache(
                name=f"l2.{core}",
                num_sets=config.l2_sets,
                assoc=config.l2_assoc,
                line_bytes=config.line_bytes,
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
            )
            for tile in range(config.cores)
        ]
        # The L3 slice comes from AddressMap.decode, which computes the
        # hash on each call and remembers nothing per line: every L2
        # miss needs the line's full route anyway (a memory read is
        # routed to its controller and bank, an L3 hit back from its
        # slice), so one decode per miss serves both the slice choice
        # and the request's route.
        self._decode = address_map.decode
        self._line_shift = config.line_bytes.bit_length() - 1

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------
    def access(self, core_id: int, addr: int, is_write: bool, qos_id: int) -> HierarchyOutcome:
        """Run one demand access through L2 then (on miss) the L3 slice.

        The system inlines the L2 probe and calls :meth:`l2_miss`; this
        entry point is the one perfbench's ``cache`` span wraps.
        """
        if self.l2s[core_id].lookup(addr >> self._line_shift, is_write):
            return _L2_HIT
        return self.l2_miss(core_id, addr, is_write, qos_id)

    def l2_miss(self, core_id: int, addr: int, is_write: bool, qos_id: int) -> HierarchyOutcome:
        """Finish a demand access whose L2 probe already missed.

        Counts the L2 miss and allocates the line there, writes a dirty L2
        victim into its L3 slice, then runs the demand access on the
        line's own slice.  The system's inlined L2-hit probe calls this
        directly, so a miss is probed once per level.
        """
        line_number = addr >> self._line_shift
        l2 = self.l2s[core_id]
        l2.misses += 1
        victim = l2.allocate(line_number, qos_id, is_write)
        route = self._decode(addr)
        writebacks: tuple[int, ...] = ()
        # A dirty L2 victim is written into the L3 (it may itself push a
        # dirty L3 line out to memory).
        if victim is not None and victim.dirty:
            victim_addr = victim.line_addr
            l3_victim = self.l3_slices[self._decode(victim_addr)[0]].fill(
                victim_addr, victim.qos_id, dirty=True
            )
            if l3_victim is not None and l3_victim.dirty:
                writebacks = (l3_victim.line_addr,)
        l3 = self.l3_slices[route[0]]
        if l3.lookup(line_number, False):
            return HierarchyOutcome(HitLevel.L3, route, writebacks)
        l3.misses += 1
        l3_victim = l3.allocate(line_number, qos_id, False)
        if l3_victim is not None and l3_victim.dirty:
            writebacks += (l3_victim.line_addr,)
        return HierarchyOutcome(HitLevel.MEMORY, route, writebacks)
