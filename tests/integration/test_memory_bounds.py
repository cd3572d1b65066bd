"""A run's memory is bounded by the machine it models, not by its length.

Once the caches are full, the only state a run keeps adding is the
output its caller asked for: here, with latency sampling off, one
:class:`~repro.sim.stats.EpochSample` per epoch.  Per-line or
per-request state that outlives its line or request (a decode memo, a
retained request) shows up as growth proportional to the traffic.
"""

import tracemalloc

from repro.cache.hierarchy import CacheHierarchy
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.sim.topology import AddressMap
from repro.workloads.stream import StreamWorkload

#: Warm-up epochs.  The stream fills the 768 lines it can reach in the
#: caches of ``small_test()`` by epoch 50 (about 500 reads).
N = 100
#: Traced growth allowed per epoch after warm-up.  The epoch timeline
#: costs about 0.4 KiB an epoch; a per-line decode memo added about
#: 1.8 KiB an epoch on top of it.
BYTES_PER_EPOCH = 1024
#: Traced bytes per resident line of a filled tag store, construction
#: included.  A set's recency dict entry, its line-number int and the
#: way's state byte come to about 100 B; an object per line (its
#: ``CacheLine``, ``line_addr`` int and a flat tag dict entry on top)
#: cost about 260 B.
BYTES_PER_LINE = 150


def stream_system():
    config = SystemConfig.small_test()
    registry = QoSRegistry()
    registry.define_class(0, "hi", weight=3)
    registry.define_class(1, "lo", weight=1)
    registry.assign_core(0, 0)
    registry.assign_core(1, 1)
    workloads = {0: StreamWorkload(), 1: StreamWorkload()}
    return System(config, registry, workloads)


def test_stream_run_grows_only_by_its_epoch_timeline():
    tracemalloc.start()
    try:
        system = stream_system()
        system.run_epochs(N)
        warm = tracemalloc.get_traced_memory()[0]
        system.run_epochs(2 * N)
        grown = tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()
    reads = sum(c.reads_completed for c in system.stats.classes.values())
    assert reads > 3000  # the stream kept touching new lines
    assert len(system.stats.epochs) == 3 * N
    assert grown < 2 * N * BYTES_PER_EPOCH


def test_address_map_holds_no_per_line_container():
    system = stream_system()
    system.run_epochs(10)
    for name, value in vars(system.address_map).items():
        assert isinstance(value, (int, bool)), name


def test_filled_tag_store_bytes_per_resident_line():
    """Fill every L2 and L3 slice of ``default_experiment()`` through the
    system's miss path; each core streams its own region, a third of
    the accesses writes and the two classes alternate by core."""
    config = SystemConfig.default_experiment()
    address_map = AddressMap(config, num_slices=config.cores)
    line = config.line_bytes
    per_core = config.l2_sets * config.l2_assoc + config.l3_slice_sets * config.l3_assoc
    tracemalloc.start()
    try:
        hierarchy = CacheHierarchy(config, address_map)
        for index in range(per_core):
            for core in range(config.cores):
                hierarchy.l2_miss(core, (core << 32) + index * line, index % 3 == 0, core % 2)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    caches = hierarchy.l2s + hierarchy.l3_slices
    lines = sum(len(recency) for cache in caches for recency in cache._sets)
    assert lines > 0.9 * sum(cache.num_sets * cache.assoc for cache in caches)
    assert traced / lines < BYTES_PER_LINE
