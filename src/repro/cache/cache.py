"""Set-associative cache with write-back, write-allocate semantics.

The model tracks, per line, the owning QoS class (for occupancy monitoring
and writeback attribution) and a dirty bit.  It is purely functional with
respect to time: latency is applied by the system layer, which lets the same
class model the private L2 and the shared, partitioned L3 slices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.partition import WayPartition

__all__ = ["CacheLine", "LookupResult", "SetAssociativeCache"]


@dataclass(slots=True)
class CacheLine:
    """One resident line.  ``line_addr`` is the full line-aligned address."""

    line_addr: int
    qos_id: int
    dirty: bool = False


@dataclass(slots=True)
class LookupResult:
    """Outcome of one cache access."""

    hit: bool
    victim: CacheLine | None = None

    @property
    def dirty_eviction(self) -> bool:
        return self.victim is not None and self.victim.dirty


# Shared victimless results: callers treat LookupResult as read-only, so
# the two victimless outcomes need no per-access allocation.
_HIT = LookupResult(hit=True)
_MISS = LookupResult(hit=False)


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache with true LRU.

    Parameters
    ----------
    num_sets, assoc, line_bytes:
        Geometry.  ``num_sets`` must be a power of two (index by masking).
    partition:
        Optional :class:`WayPartition` restricting which ways each QoS class
        may allocate into.  Hits in any way still count (CAT semantics).
    """

    def __init__(
        self,
        name: str,
        num_sets: int,
        assoc: int,
        line_bytes: int = 64,
        partition: WayPartition | None = None,
    ) -> None:
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        if assoc <= 0:
            raise ValueError(f"assoc must be positive, got {assoc}")
        if partition is not None and partition.assoc != assoc:
            raise ValueError("partition assoc does not match cache assoc")
        self.name = name
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        self.partition = partition
        self._all_ways = tuple(range(assoc))
        # Per set, the occupied ways in recency order, least recent first,
        # each mapped to its resident line.  A hit re-inserts its way at the
        # end, so the LRU victim is the first allowed key: O(1) without a
        # partition, where a per-way stamp scan cost O(assoc) per fill.
        self._sets: list[dict[int, CacheLine]] = [{} for _ in range(num_sets)]
        # Tag store: line number (addr >> line_shift) -> resident way.  The
        # line number embeds the set bits, so one flat dict replaces the
        # per-set associative scan on every probe.
        self._where: dict[int, int] = {}
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return (addr >> self._line_shift) << self._line_shift

    def set_index(self, addr: int) -> int:
        return (addr >> self._line_shift) & self._set_mask

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_bytes

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no recency update)."""
        return (addr >> self._line_shift) in self._where

    def access(self, addr: int, is_write: bool, qos_id: int, allocate: bool = True) -> LookupResult:
        """Perform a demand access.

        On a miss with ``allocate=True`` the line is filled and a victim may
        be returned; a dirty victim means the caller must emit a writeback.
        """
        line_number = addr >> self._line_shift
        if self.lookup(line_number, is_write):
            return _HIT
        self.misses += 1
        if not allocate:
            return _MISS
        victim = self.allocate(line_number, qos_id, is_write)
        if victim is None:
            return _MISS
        return LookupResult(hit=False, victim=victim)

    def lookup(self, line_number: int, is_write: bool) -> bool:
        """Demand probe by line number; a hit is counted and made most recent.

        A miss counts nothing: the caller counts it when it allocates (see
        :meth:`CacheHierarchy.l2_miss`).
        """
        way = self._where.get(line_number)
        if way is None:
            return False
        recency = self._sets[line_number & self._set_mask]
        line = recency.pop(way)
        recency[way] = line
        if is_write:
            line.dirty = True
        self.hits += 1
        return True

    def fill(self, addr: int, qos_id: int, dirty: bool = False) -> CacheLine | None:
        """Install a line without counting a demand access (e.g. writeback)."""
        line_number = addr >> self._line_shift
        way = self._where.get(line_number)
        if way is None:
            return self.allocate(line_number, qos_id, dirty)
        recency = self._sets[line_number & self._set_mask]
        line = recency.pop(way)
        recency[way] = line
        line.dirty = line.dirty or dirty
        return None

    def invalidate(self, addr: int) -> CacheLine | None:
        """Remove a line; returns it (so dirty data can be written back)."""
        line_number = addr >> self._line_shift
        way = self._where.pop(line_number, None)
        if way is None:
            return None
        return self._sets[line_number & self._set_mask].pop(way)

    def allocate(self, line_number: int, qos_id: int, dirty: bool) -> CacheLine | None:
        """Install a non-resident line as most recent; return the evicted line.

        The target is the first empty way the class may allocate into while
        the set has room, and otherwise the least recent allowed way.
        Counts evictions but no demand access.
        """
        recency = self._sets[line_number & self._set_mask]
        partition = self.partition
        # direct probe of the partition's allowed-ways cache; configured
        # masks are never empty, and a missing entry means "all ways"
        allowed = (
            partition._allowed_cache.get(qos_id) or self._all_ways
            if partition is not None
            else self._all_ways
        )
        target = -1
        if len(recency) < self.assoc:
            for way in allowed:
                if way not in recency:
                    target = way
                    break
        if target < 0:
            # every allowed way is occupied, so one is in the recency order
            for way in recency:
                if way in allowed:
                    target = way
                    break
            victim = recency.pop(target)
            self.evictions += 1
            del self._where[victim.line_addr >> self._line_shift]
            if victim.dirty:
                self.dirty_evictions += 1
        else:
            victim = None
        recency[target] = CacheLine(
            line_addr=line_number << self._line_shift, qos_id=qos_id, dirty=dirty
        )
        self._where[line_number] = target
        return victim

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def occupancy_by_class(self) -> dict[int, int]:
        """Resident line count per QoS class (for CMT-style monitoring)."""
        counts: dict[int, int] = {}
        for recency in self._sets:
            for line in recency.values():
                counts[line.qos_id] = counts.get(line.qos_id, 0) + 1
        return counts

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total
