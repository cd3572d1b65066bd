"""Unit and property tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import _EMPTY as EMPTY, SetAssociativeCache
from repro.cache.partition import WayPartition


def make_cache(num_sets=4, assoc=2, partition=None):
    return SetAssociativeCache(
        "test", num_sets=num_sets, assoc=assoc, line_bytes=64,
        partition=partition,
    )


def access(cache, addr, is_write, qos_id, allocate=True):
    """One demand access the way ``CacheHierarchy.l2_miss`` runs it: a
    lookup and, on a miss, the miss count and the fill.  Returns
    ``(hit, victim)``."""
    line = addr >> 6
    if cache.lookup(line, is_write):
        return True, None
    cache.misses += 1
    if not allocate:
        return False, None
    return False, cache.allocate(line, qos_id, is_write)


def resident(cache, addr):
    """Whether the line holding ``addr`` is in the cache (touches nothing)."""
    line = addr >> 6
    return line in cache._sets[line & cache._set_mask]


class TestGeometry:
    def test_capacity(self):
        cache = make_cache(num_sets=4, assoc=2)
        assert len(cache._state) == 4 * 2  # one state byte per way
        assert sum(cache.occupancy_by_class().values()) == 0

    def test_line_and_set_mapping(self):
        cache = make_cache(num_sets=4)
        access(cache, 0x47, False, 0)
        assert resident(cache, 0x40)
        access(cache, 0x140, False, 0)
        assert 0x140 >> 6 in cache._sets[1]  # wraps modulo num_sets

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            make_cache(num_sets=3)

    def test_rejects_partition_assoc_mismatch(self):
        with pytest.raises(ValueError):
            make_cache(assoc=2, partition=WayPartition(4))


class TestHitMiss:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert not access(cache, 0x100, False, qos_id=0)[0]
        assert access(cache, 0x100, False, qos_id=0)[0]
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_different_offset_hits(self):
        cache = make_cache()
        access(cache, 0x100, False, 0)
        assert access(cache, 0x13F, False, 0)[0]

    def test_probe_does_not_allocate_or_touch(self):
        cache = make_cache()
        assert not cache.lookup(0x100 >> 6, False)
        assert not resident(cache, 0x100)
        assert cache.hits == 0 and cache.misses == 0  # the caller counts misses

    def test_no_allocate_miss(self):
        cache = make_cache()
        hit, victim = access(cache, 0x100, False, 0, allocate=False)
        assert not hit and victim is None
        assert not resident(cache, 0x100)

    def test_miss_rate(self):
        cache = make_cache()
        access(cache, 0x100, False, 0)
        access(cache, 0x100, False, 0)
        assert (cache.hits, cache.misses) == (1, 1)


class TestEvictionAndDirty:
    def test_lru_victim_is_least_recent(self):
        cache = make_cache(num_sets=1, assoc=2)
        access(cache, 0x000, False, 0)
        access(cache, 0x040, False, 0)
        access(cache, 0x000, False, 0)        # touch line 0
        _, victim = access(cache, 0x080, False, 0)
        assert victim is not None
        assert victim.line_addr == 0x040
        assert resident(cache, 0x000) and not resident(cache, 0x040)

    def test_dirty_eviction_flagged(self):
        cache = make_cache(num_sets=1, assoc=1)
        access(cache, 0x000, True, 0)
        _, victim = access(cache, 0x040, False, 0)
        assert victim.dirty
        assert cache.dirty_evictions == 1

    def test_clean_eviction_not_flagged(self):
        cache = make_cache(num_sets=1, assoc=1)
        access(cache, 0x000, False, 0)
        _, victim = access(cache, 0x040, False, 0)
        assert victim is not None and not victim.dirty
        assert cache.evictions == 1 and cache.dirty_evictions == 0

    def test_write_hit_marks_dirty(self):
        cache = make_cache(num_sets=1, assoc=1)
        access(cache, 0x000, False, 0)
        access(cache, 0x000, True, 0)
        _, victim = access(cache, 0x040, False, 0)
        assert victim is not None and victim.dirty

    def test_evicted_line_carries_its_class(self):
        cache = make_cache(num_sets=1, assoc=1)
        access(cache, 0x100, True, 3)
        _, victim = access(cache, 0x140, False, 0)
        assert (victim.line_addr, victim.qos_id, victim.dirty) == (0x100, 3, True)


class TestStateByte:
    def test_largest_encodable_class_round_trips(self):
        cache = make_cache(num_sets=1, assoc=1)
        cache.fill(0x000, qos_id=126, dirty=True)
        assert cache.occupancy_by_class() == {126: 1}
        victim = cache.fill(0x040, qos_id=0)
        assert (victim.qos_id, victim.dirty) == (126, True)

    @pytest.mark.parametrize("qos_id", [127, 255, 1000, -1])
    def test_unencodable_class_raises_and_changes_nothing(self, qos_id):
        cache = make_cache(num_sets=1, assoc=2)
        cache.fill(0x000, qos_id=1, dirty=True)
        cache.fill(0x040, qos_id=2)
        sets, state = [dict(s) for s in cache._sets], bytes(cache._state)
        counters = (cache.hits, cache.misses, cache.evictions, cache.dirty_evictions)
        with pytest.raises(ValueError, match="qos_id"):
            cache.fill(0x080, qos_id=qos_id)  # would evict line 0
        with pytest.raises(ValueError, match="qos_id"):
            cache.allocate(0x0C0 >> 6, qos_id, True)
        assert [dict(s) for s in cache._sets] == sets
        assert bytes(cache._state) == state
        assert (cache.hits, cache.misses, cache.evictions,
                cache.dirty_evictions) == counters


class TestFillAndInvalidate:
    def test_fill_installs_without_demand_counters(self):
        cache = make_cache()
        assert cache.fill(0x100, qos_id=1) is None
        assert resident(cache, 0x100)
        assert cache.hits == 0 and cache.misses == 0

    def test_fill_existing_line_merges_dirty(self):
        cache = make_cache(num_sets=1, assoc=1)
        access(cache, 0x000, False, 0)
        cache.fill(0x000, qos_id=0, dirty=True)
        _, victim = access(cache, 0x040, False, 0)
        assert victim is not None and victim.dirty


class TestPartitioning:
    def test_class_cannot_evict_outside_its_ways(self):
        partition = WayPartition.exclusive(2, {0: 1, 1: 1})
        cache = make_cache(num_sets=1, assoc=2, partition=partition)
        access(cache, 0x000, False, 0)   # class 0 fills way 0
        access(cache, 0x040, False, 1)   # class 1 fills way 1
        access(cache, 0x080, False, 1)   # class 1 must evict its own line
        assert resident(cache, 0x000)
        assert not resident(cache, 0x040)
        assert resident(cache, 0x080)

    def test_hit_allowed_in_foreign_way(self):
        partition = WayPartition.exclusive(2, {0: 1, 1: 1})
        cache = make_cache(num_sets=1, assoc=2, partition=partition)
        access(cache, 0x000, False, 0)
        assert access(cache, 0x000, False, 1)[0]  # CAT semantics

    def test_occupancy_by_class(self):
        partition = WayPartition.exclusive(4, {0: 2, 1: 2})
        cache = make_cache(num_sets=2, assoc=4, partition=partition)
        access(cache, 0x000, False, 0)
        access(cache, 0x040, False, 1)
        access(cache, 0x080, False, 1)
        occ = cache.occupancy_by_class()
        assert occ == {0: 1, 1: 2}


@settings(max_examples=50)
@given(
    addrs=st.lists(
        st.integers(min_value=0, max_value=0x4000).map(lambda a: a * 64),
        min_size=1,
        max_size=200,
    )
)
def test_property_occupancy_never_exceeds_capacity(addrs):
    cache = make_cache(num_sets=4, assoc=2)
    for addr in addrs:
        access(cache, addr, False, qos_id=addr % 3)
    total = sum(cache.occupancy_by_class().values())
    assert total <= cache.num_sets * cache.assoc
    assert cache.hits + cache.misses == len(addrs)


@settings(max_examples=50)
@given(
    addrs=st.lists(
        st.integers(min_value=0, max_value=63).map(lambda a: a * 64),
        min_size=1,
        max_size=100,
    )
)
def test_property_working_set_within_capacity_never_evicts_after_warm(addrs):
    """LRU with a working set <= capacity: second pass is all hits."""
    unique = list(dict.fromkeys(addrs))[:8]
    cache = make_cache(num_sets=1, assoc=8)
    for addr in unique:
        access(cache, addr, False, 0)
    for addr in unique:
        assert access(cache, addr, False, 0)[0]


# ----------------------------------------------------------------------
# recency order vs. a stamp-scan reference LRU
# ----------------------------------------------------------------------
class StampScanLru:
    """Reference LRU: a stamp per way, victims found by scanning the set.

    The victim is the first empty way the class may allocate into, or
    else the allowed way with the oldest stamp.  Lines are
    ``[line_addr, qos_id, dirty]`` lists.
    """

    def __init__(self, num_sets, assoc, partition):
        self.num_sets = num_sets
        self.assoc = assoc
        self.partition = partition
        self.ways = [[None] * assoc for _ in range(num_sets)]
        self.stamps = [[0] * assoc for _ in range(num_sets)]
        self.clock = 0
        self.hits = self.misses = self.evictions = self.dirty_evictions = 0

    def _locate(self, addr):
        set_index = (addr >> 6) % self.num_sets
        for way, line in enumerate(self.ways[set_index]):
            if line is not None and line[0] == addr >> 6 << 6:
                return set_index, way
        return set_index, None

    def _touch(self, set_index, way):
        self.clock += 1
        self.stamps[set_index][way] = self.clock

    def _install(self, set_index, addr, qos_id, dirty):
        allowed = (
            self.partition.allowed_ways(qos_id)
            if self.partition is not None
            else tuple(range(self.assoc))
        )
        ways = self.ways[set_index]
        empty = [way for way in allowed if ways[way] is None]
        if empty:
            target = empty[0]
        else:
            target = min(allowed, key=lambda way: self.stamps[set_index][way])
        victim = ways[target]
        if victim is not None:
            self.evictions += 1
            self.dirty_evictions += victim[2]
        ways[target] = [addr >> 6 << 6, qos_id, dirty]
        self._touch(set_index, target)
        return victim

    def access(self, addr, is_write, qos_id, allocate):
        set_index, way = self._locate(addr)
        if way is not None:
            self.hits += 1
            self.ways[set_index][way][2] |= is_write
            self._touch(set_index, way)
            return None
        self.misses += 1
        return self._install(set_index, addr, qos_id, is_write) if allocate else None

    def fill(self, addr, qos_id, dirty):
        set_index, way = self._locate(addr)
        if way is None:
            return self._install(set_index, addr, qos_id, dirty)
        self.ways[set_index][way][2] |= dirty
        self._touch(set_index, way)
        return None


def _overlapping_partition():
    partition = WayPartition(4)
    partition.set_mask(0, 0b0111)
    partition.set_mask(1, 0b1110)
    return partition


PARTITIONS = {
    "none": lambda: None,
    "exclusive": lambda: WayPartition.exclusive(4, {0: 1, 1: 3}),
    "overlapping": _overlapping_partition,
}


def _as_list(line):
    return None if line is None else [line.line_addr, line.qos_id, line.dirty]


def _resident(cache):
    """Per set, ``{way: [line_addr, qos_id, dirty]}`` in recency order,
    read from the set's recency dict and the way state bytes; a way
    that holds no line must read as empty."""
    sets = []
    for set_index, recency in enumerate(cache._sets):
        base = set_index * cache.assoc
        states = cache._state[base:base + cache.assoc]
        assert all(
            (states[way] == EMPTY) == (way not in recency.values())
            for way in range(cache.assoc)
        )
        sets.append([
            (way, [line << 6, states[way] >> 1, bool(states[way] & 1)])
            for line, way in recency.items()
        ])
    return sets


def _reference_resident(ref):
    return [
        sorted(
            ((way, line) for way, line in enumerate(ways) if line is not None),
            key=lambda entry: stamps[entry[0]],
        )
        for ways, stamps in zip(ref.ways, ref.stamps)
    ]


@pytest.mark.parametrize("partition_kind", sorted(PARTITIONS))
@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["access", "access", "access", "fill"]),
            st.integers(min_value=0, max_value=23).map(lambda line: line * 64),
            st.booleans(),
            st.integers(min_value=0, max_value=2),
            st.booleans(),
        ),
        max_size=150,
    )
)
def test_property_recency_order_matches_stamp_scan_lru(partition_kind, ops):
    """Victims, counters, resident lines and their recency order equal
    the stamp-scan LRU's.

    Two sets of four ways and 24 lines force evictions; class 2 has no
    mask (all ways), so under a partition some hits land on lines
    outside the accessor's allowed ways.
    """
    partition = PARTITIONS[partition_kind]()
    cache = make_cache(num_sets=2, assoc=4, partition=partition)
    ref = StampScanLru(2, 4, partition)
    for op, addr, flag, qos_id, allocate in ops:
        if op == "access":
            _, victim = access(cache, addr, flag, qos_id, allocate=allocate)
            expected = ref.access(addr, flag, qos_id, allocate)
        else:
            victim = cache.fill(addr, qos_id, dirty=flag)
            expected = ref.fill(addr, qos_id, flag)
        assert _as_list(victim) == expected
        assert _resident(cache) == _reference_resident(ref)
    counters = ("hits", "misses", "evictions", "dirty_evictions")
    assert [getattr(cache, name) for name in counters] == [
        getattr(ref, name) for name in counters
    ]
