"""Cache models: set-associative caches, partitioning, and the hierarchy."""

from repro.cache.cache import CacheLine, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, HierarchyOutcome, HitLevel
from repro.cache.partition import WayPartition

__all__ = [
    "CacheHierarchy", "CacheLine", "HierarchyOutcome", "HitLevel",
    "SetAssociativeCache", "WayPartition",
]
