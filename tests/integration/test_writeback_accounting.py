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
from repro.workloads.stream import StreamWorkload


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
