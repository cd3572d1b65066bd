"""Way-based cache capacity partitioning (Intel CAT-like).

The paper assumes the baseline already partitions the shared L3 by ways and
uses exclusive partitions in every experiment to isolate cache effects from
bandwidth effects.  A :class:`WayPartition` maps each QoS class to the set of
ways it may *allocate* into; hits are unrestricted, matching CAT semantics.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["WayPartition"]


class WayPartition:
    """Per-class way masks over a cache with ``assoc`` ways.

    ``_allowed_cache`` maps each configured class to the ways it may
    allocate into, in way order; :meth:`SetAssociativeCache.allocate`
    reads it directly, and a class missing from it may use every way.
    """

    def __init__(self, assoc: int) -> None:
        if assoc <= 0:
            raise ValueError(f"assoc must be positive, got {assoc}")
        self._assoc = assoc
        self._full_mask = (1 << assoc) - 1
        self._allowed_cache: dict[int, tuple[int, ...]] = {}

    @property
    def assoc(self) -> int:
        return self._assoc

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_mask(self, qos_id: int, mask: int) -> None:
        """Assign a raw way bitmask to a class."""
        if mask <= 0 or mask & ~self._full_mask:
            raise ValueError(
                f"mask {mask:#x} invalid for {self._assoc}-way cache"
            )
        self._allowed_cache[qos_id] = tuple(
            way for way in range(self._assoc) if mask >> way & 1
        )

    def set_ways(self, qos_id: int, ways: Iterable[int]) -> None:
        """Assign an explicit collection of way indices to a class."""
        mask = 0
        for way in ways:
            if not 0 <= way < self._assoc:
                raise ValueError(f"way {way} out of range for assoc {self._assoc}")
            mask |= 1 << way
        self.set_mask(qos_id, mask)

    @classmethod
    def exclusive(cls, assoc: int, way_counts: Mapping[int, int]) -> "WayPartition":
        """Carve contiguous, non-overlapping partitions.

        ``way_counts`` maps qos_id -> number of ways; the total must fit.
        This is how every experiment in the paper isolates classes in the L3.
        """
        total = sum(way_counts.values())
        if total > assoc:
            raise ValueError(f"requested {total} ways, cache has {assoc}")
        for qos_id, count in way_counts.items():
            if count <= 0:
                raise ValueError(f"class {qos_id} needs a positive way count")
        partition = cls(assoc)
        next_way = 0
        for qos_id in sorted(way_counts):
            count = way_counts[qos_id]
            partition.set_ways(qos_id, range(next_way, next_way + count))
            next_way += count
        return partition
