"""Unit tests for way-based cache partitioning."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.partition import WayPartition


def allowed_ways(partition, qos_id):
    """The ways ``qos_id`` may allocate into, as the cache reads them."""
    return partition._allowed_cache.get(qos_id) or tuple(range(partition.assoc))


def is_exclusive(partition):
    """True when no two configured classes share a way."""
    ways = [way for allowed in partition._allowed_cache.values() for way in allowed]
    return len(ways) == len(set(ways))


class TestMasks:
    def test_default_mask_allows_all_ways(self):
        partition = WayPartition(8)
        assert allowed_ways(partition, 0) == tuple(range(8))

    def test_set_mask(self):
        partition = WayPartition(8)
        partition.set_mask(1, 0b00001111)
        assert allowed_ways(partition, 1) == (0, 1, 2, 3)

    def test_set_ways(self):
        partition = WayPartition(4)
        partition.set_ways(0, [1, 3])
        assert allowed_ways(partition, 0) == (1, 3)

    def test_invalid_masks_rejected(self):
        partition = WayPartition(4)
        with pytest.raises(ValueError):
            partition.set_mask(0, 0)
        with pytest.raises(ValueError):
            partition.set_mask(0, 1 << 4)
        with pytest.raises(ValueError):
            partition.set_ways(0, [4])

    def test_invalid_assoc_rejected(self):
        with pytest.raises(ValueError):
            WayPartition(0)


class TestExclusive:
    def test_exclusive_partitions_do_not_overlap(self):
        partition = WayPartition.exclusive(16, {0: 8, 1: 8})
        assert is_exclusive(partition)
        assert set(allowed_ways(partition, 0)) & set(allowed_ways(partition, 1)) == set()
        assert len(allowed_ways(partition, 0)) == 8

    def test_exclusive_overflow_rejected(self):
        with pytest.raises(ValueError):
            WayPartition.exclusive(8, {0: 5, 1: 4})

    def test_exclusive_zero_ways_rejected(self):
        with pytest.raises(ValueError):
            WayPartition.exclusive(8, {0: 0})

    def test_overlap_detection(self):
        partition = WayPartition(8)
        partition.set_mask(0, 0b0011)
        partition.set_mask(1, 0b0110)
        assert not is_exclusive(partition)


@given(
    assoc=st.integers(min_value=1, max_value=32),
    counts=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
)
def test_property_exclusive_covers_exactly_requested_ways(assoc, counts):
    way_counts = {qos: count for qos, count in enumerate(counts)}
    if sum(counts) > assoc:
        with pytest.raises(ValueError):
            WayPartition.exclusive(assoc, way_counts)
        return
    partition = WayPartition.exclusive(assoc, way_counts)
    assert is_exclusive(partition)
    for qos, count in way_counts.items():
        assert len(allowed_ways(partition, qos)) == count
    used = [w for qos in way_counts for w in allowed_ways(partition, qos)]
    assert len(used) == len(set(used))
