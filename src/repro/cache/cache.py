"""Set-associative cache with write-back, write-allocate semantics.

The model tracks, per line, the owning QoS class (for writeback
attribution) and a dirty bit.  It is purely functional with respect to
time: latency is applied by the system layer, which lets the same class
model the private L2 and the shared, partitioned L3 slices.

The tag store holds no Python object per resident line.  Each set is one
dict from line number to way, in recency order, and one ``bytearray``
holds a state byte per way (``qos_id << 1 | dirty``, or ``_EMPTY``).  A
resident line therefore costs one dict entry and its line-number int,
about 100 traced bytes on a filled ``SystemConfig.default_experiment()``
hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.partition import WayPartition

__all__ = ["CacheLine", "SetAssociativeCache"]

#: state byte of an empty way; a resident line's byte is ``qos_id << 1 |
#: dirty``, so the largest class id a byte can hold apart from it is 126
_EMPTY = 0xFF
_MAX_QOS_ID = _EMPTY // 2 - 1


@dataclass(slots=True)
class CacheLine:
    """An evicted line, built only when :meth:`SetAssociativeCache.allocate`
    evicts.  ``line_addr`` is the full line-aligned address."""

    line_addr: int
    qos_id: int
    dirty: bool = False


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache with true LRU.

    Parameters
    ----------
    num_sets, assoc, line_bytes:
        Geometry.  ``num_sets`` must be a power of two (index by masking).
    partition:
        Optional :class:`WayPartition` restricting which ways each QoS class
        may allocate into.  Hits in any way still count (CAT semantics).

    Layout: ``_sets[s]`` maps each resident line number of set ``s`` to its
    way, least recent first; a hit pops and re-inserts its key, so the LRU
    victim is the first allowed way in that order.  ``_state[s * assoc +
    way]`` is the way's state byte.
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
        self._sets: list[dict[int, int]] = [{} for _ in range(num_sets)]
        self._state = bytearray([_EMPTY]) * (num_sets * assoc)
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def lookup(self, line_number: int, is_write: bool) -> bool:
        """Demand probe by line number; a hit is counted and made most recent.

        A miss counts nothing: the caller counts it when it allocates (see
        :meth:`CacheHierarchy.l2_miss`).
        """
        set_index = line_number & self._set_mask
        recency = self._sets[set_index]
        way = recency.pop(line_number, None)
        if way is None:
            return False
        recency[line_number] = way
        if is_write:
            self._state[set_index * self.assoc + way] |= 1
        self.hits += 1
        return True

    def fill(self, addr: int, qos_id: int, dirty: bool = False) -> CacheLine | None:
        """Install a line without counting a demand access (e.g. writeback)."""
        line_number = addr >> self._line_shift
        set_index = line_number & self._set_mask
        recency = self._sets[set_index]
        way = recency.pop(line_number, None)
        if way is None:
            return self.allocate(line_number, qos_id, dirty)
        recency[line_number] = way
        if dirty:
            self._state[set_index * self.assoc + way] |= 1
        return None

    def allocate(self, line_number: int, qos_id: int, dirty: bool) -> CacheLine | None:
        """Install a non-resident line as most recent; return the evicted line.

        The target is the first empty way the class may allocate into while
        the set has room, and otherwise the least recent allowed way.
        Counts evictions but no demand access.  A ``qos_id`` the state
        byte cannot hold raises before anything changes.
        """
        if not 0 <= qos_id <= _MAX_QOS_ID:
            raise ValueError(f"qos_id must be in [0, {_MAX_QOS_ID}], got {qos_id}")
        set_index = line_number & self._set_mask
        recency = self._sets[set_index]
        state = self._state
        base = set_index * self.assoc
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
                if state[base + way] == _EMPTY:
                    target = way
                    break
        victim = None
        if target < 0:
            # every allowed way is occupied, so one is in the recency order
            for victim_line, target in recency.items():
                if target in allowed:
                    break
            del recency[victim_line]
            old = state[base + target]
            self.evictions += 1
            if old & 1:
                self.dirty_evictions += 1
            victim = CacheLine(victim_line << self._line_shift, old >> 1, bool(old & 1))
        recency[line_number] = target
        state[base + target] = qos_id << 1 | dirty
        return victim
