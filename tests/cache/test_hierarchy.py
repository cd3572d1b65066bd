"""Unit tests for the L2/L3 hierarchy semantics PABST depends on."""

from repro.cache.hierarchy import CacheHierarchy, HitLevel
from repro.cache.partition import WayPartition
from repro.qos.monitor import OccupancyMonitor
from repro.sim.config import SystemConfig
from repro.sim.topology import AddressMap


def make_hierarchy(partition=None, config=None):
    config = config or SystemConfig.small_test()
    address_map = AddressMap(config, num_slices=config.cores)
    return CacheHierarchy(config, address_map, l3_partition=partition), config


class TestLevels:
    def test_cold_access_goes_to_memory(self):
        hierarchy, _ = make_hierarchy()
        outcome = hierarchy.access(0, 0x1000, False, qos_id=0)
        assert outcome.level is HitLevel.MEMORY
        assert outcome.route is not None  # an L2 miss carries its route

    def test_second_access_hits_l2(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.access(0, 0x1000, False, 0)
        outcome = hierarchy.access(0, 0x1000, False, 0)
        assert outcome.level is HitLevel.L2
        assert outcome.route is None and outcome.mem_writebacks == ()

    def test_l2_evicted_line_hits_l3(self):
        hierarchy, config = make_hierarchy()
        l2_lines = config.l2_sets * config.l2_assoc
        base = 0x100000
        hierarchy.access(0, base, False, 0)
        # push the first line out of the (tiny) L2 by filling it
        addr = base + 0x40
        step = config.line_bytes * config.l2_sets  # same-set conflicts
        for i in range(config.l2_assoc + 1):
            hierarchy.access(0, base + (i + 1) * step, False, 0)
        outcome = hierarchy.access(0, base, False, 0)
        assert outcome.level is HitLevel.L3

    def test_sharing_through_l3_across_cores(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.access(0, 0x2000, False, 0)
        outcome = hierarchy.access(1, 0x2000, False, 0)
        assert outcome.level is HitLevel.L3  # other core's L2 missed, L3 hit


class TestWritebacks:
    def _fill_class_ways(self, hierarchy, config, qos_id, base, is_write):
        """Stream far past the L3 capacity to force evictions."""
        total_lines = config.l3_slice_sets * config.l3_assoc * config.cores
        writebacks = []
        for i in range(total_lines * 3):
            outcome = hierarchy.access(
                0, base + i * config.line_bytes, is_write, qos_id
            )
            writebacks.extend(outcome.mem_writebacks)
        return writebacks

    def test_clean_stream_generates_no_writebacks(self):
        hierarchy, config = make_hierarchy()
        writebacks = self._fill_class_ways(hierarchy, config, 0, 0, is_write=False)
        assert writebacks == []

    def test_write_stream_generates_writebacks(self):
        hierarchy, config = make_hierarchy()
        writebacks = self._fill_class_ways(hierarchy, config, 0, 0, is_write=True)
        assert len(writebacks) > 0
        # writebacks are line addresses
        assert all(addr % config.line_bytes == 0 for addr in writebacks)

    def test_clean_stream_writes_back_other_class_lines(self):
        """A clean streamer evicting another class's dirty lines pushes
        them to memory from its own accesses: the evictions Section V-C
        charges to the demanding class."""
        config = SystemConfig.small_test()
        hierarchy, _ = make_hierarchy(config=config)
        # class 7 dirties a footprint roughly the size of the L3
        total_lines = config.l3_slice_sets * config.l3_assoc * config.cores
        for i in range(total_lines):
            hierarchy.access(0, i * 64, True, qos_id=7)
        # class 1 streams cleanly far past the cache, evicting 7's lines
        written = set()
        for i in range(total_lines * 3):
            outcome = hierarchy.access(1, (1 << 30) + i * 64, False, qos_id=1)
            written.update(outcome.mem_writebacks)
        assert written
        assert all(addr < total_lines * 64 for addr in written)


class TestPartitionIsolation:
    def test_streaming_class_cannot_evict_neighbour(self):
        config = SystemConfig.small_test()
        partition = WayPartition.exclusive(config.l3_assoc, {0: 8, 1: 8})
        hierarchy, _ = make_hierarchy(partition=partition, config=config)
        # class 0 warms a small set
        resident = [0x40 * i for i in range(16)]
        for addr in resident:
            hierarchy.access(0, addr, False, 0)
        # class 1 streams way past the whole cache
        total = config.l3_slice_sets * config.l3_assoc * config.cores
        for i in range(total * 2):
            hierarchy.access(1, 0x40000000 + i * 64, False, 1)
        # class 0 lines survive in the L3 (L2 may have evicted them)
        occupancy = OccupancyMonitor(hierarchy.l3_slices)
        assert occupancy.occupancy_lines(0) >= len(resident) // 2

    def test_occupancy_aggregation(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.access(0, 0x0, False, 0)
        hierarchy.access(0, 0x40, False, 1)
        occupancy = OccupancyMonitor(hierarchy.l3_slices)
        assert occupancy.occupancy_lines(0) >= 1 and occupancy.occupancy_lines(1) >= 1

    def test_l3_capacity_property(self):
        hierarchy, config = make_hierarchy()
        expected = config.cores * config.l3_slice_kb * 1024
        assert sum(
            cache.num_sets * cache.assoc * cache.line_bytes
            for cache in hierarchy.l3_slices
        ) == expected

    def test_l2_miss_rate_tracked(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.access(0, 0x0, False, 0)
        hierarchy.access(0, 0x0, False, 0)
        l2 = hierarchy.l2s[0]
        assert (l2.hits, l2.misses) == (1, 1)
