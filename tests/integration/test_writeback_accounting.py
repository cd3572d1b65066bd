"""Integration tests for Section V-C demand writeback accounting.

The paper's thought experiment: an L3-resident class (dirty data, no
memory traffic of its own) shares an unpartitioned L3 with a clean read
streamer.  The streamer's fills evict the resident class's dirty lines.
The paper charges the resulting memory writes to the class whose demand
caused the evictions: the streamer, both in bandwidth attribution and
through its pacers (the response's ``caused_writeback`` flag makes the
pacer charge one extra period).
"""

import pytest

from repro.core.pabst import PabstMechanism
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.base import Access
from repro.workloads.stream import StreamWorkload
from tests.integration.test_latency_model import OneShot


@pytest.fixture(scope="module")
def pabst_run():
    """L3-resident dirty class 0 vs clean streamer class 1, shared L3."""
    config = SystemConfig.default_experiment(cores=4, num_mcs=2)
    registry = QoSRegistry()
    # no l3_ways: the classes share the cache, the Section V-C situation
    registry.define_class(0, "l3res", weight=1)
    registry.define_class(1, "stream", weight=1)
    workloads = {}
    for core in range(2):
        registry.assign_core(core, 0)
        # dirty resident data with a reuse distance longer than the
        # streamer's cache-churn period, so the streamer's fills actually
        # evict it (with a hotter set, true LRU would protect it forever)
        workloads[core] = StreamWorkload(
            working_set_bytes=192 << 10, stride_bytes=64, write_fraction=1.0,
            gap=150, name="l3res",
        )
    for core in range(2, 4):
        registry.assign_core(core, 1)
        workloads[core] = StreamWorkload()  # clean DDR read stream
    mechanism = PabstMechanism()
    system = System(config, registry, workloads, mechanism=mechanism)
    system.run_epochs(100)
    system.finalize()
    return system, mechanism


class TestAttribution:
    def test_demand_charges_the_streamer(self, pabst_run):
        system, _ = pabst_run
        # the clean streamer pays for the cross-class evictions it causes
        assert system.stats.class_stats(1).bytes_written > 0


class TestPacerCharging:
    def test_demand_accounting_charges_streamer_pacers(self, pabst_run):
        _, mechanism = pabst_run
        # the streamer's pacers (cores 2-3) charged an extra period for
        # responses flagged caused_writeback
        for core in (2, 3):
            assert mechanism.pacers[core].writeback_charges > 0

    def test_mechanism_counter_sums_the_pacers(self, pabst_run):
        _, mechanism = pabst_run
        charged = sum(p.writeback_charges for p in mechanism.pacers.values())
        assert mechanism.obs_writeback_charges == charged


class TestL3HitWriteback:
    """An L3 hit can evict too: its dirty L2 victim is written into the L3,
    which may push a dirty L3 line out.  That line must reach memory."""

    def test_l3_hit_sends_its_dirty_l3_victim_to_memory(self):
        config = SystemConfig.small_test()
        line = config.line_bytes
        demand = 0x4000
        workload = OneShot([Access(addr=demand)])
        registry = QoSRegistry()
        registry.define_class(0, "only", weight=1)
        registry.assign_core(0, 0)
        system = System(config, registry, {0: workload})
        hierarchy = system.hierarchy
        decode = system.address_map.decode
        l2 = hierarchy.l2s[0]

        # the demand line's L2 set is full of dirty lines; the first one
        # filled is its LRU victim
        l2_set = [demand + k * l2.num_sets * line for k in range(1, l2.assoc + 1)]
        for addr in l2_set:
            l2.fill(addr, 0, dirty=True)
        victim = l2_set[0]
        # the victim's L3 set is full of other dirty lines, so writing the
        # victim into the L3 evicts the least recent of them
        victim_slice = hierarchy.l3_slices[decode(victim)[0]]
        stride = victim_slice.num_sets * line
        l3_set = [
            addr
            for addr in (victim + k * stride for k in range(1, 64))
            if decode(addr)[0] == decode(victim)[0]
            and addr not in l2_set
            and addr != demand
        ][: victim_slice.assoc]
        for addr in l3_set:
            victim_slice.fill(addr, 0, dirty=True)
        # the demand line itself is clean in its own L3 slice
        demand_slice = hierarchy.l3_slices[decode(demand)[0]]
        assert demand_slice.fill(demand, 0) is None
        assert all(victim_slice.probe(addr) for addr in l3_set)

        writes = []
        original = system._send_writeback

        def spy(core, addr, slice_tile):
            writes.append(addr)
            original(core, addr, slice_tile)

        system._send_writeback = spy
        system.run(10_000)
        system.finalize()

        assert demand_slice.hits == 1
        assert len(workload.completions) == 1
        assert writes == [l3_set[0]]
        stats = system.stats.class_stats(0)
        assert stats.reads_completed == 0
        assert stats.writes_completed == 1
        assert stats.bytes_written == line
