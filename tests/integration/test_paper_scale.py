"""Smoke test at the paper's full Table III scale.

The experiments run scaled configurations (DESIGN.md §4), but the full
32-core, 4-channel machine must also build and simulate correctly — this
exercises the 8x4 mesh, 4-way controller interleaving, and 20k-cycle
epochs end to end for a short window.
"""

import pytest

from repro.core.pabst import PabstMechanism
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.stream import StreamWorkload


@pytest.fixture(scope="module")
def paper_system():
    config = SystemConfig.paper_32core()
    registry = QoSRegistry()
    registry.define_class(0, "hi", weight=3, l3_ways=8)
    registry.define_class(1, "lo", weight=1, l3_ways=8)
    workloads = {}
    for core in range(32):
        registry.assign_core(core, 0 if core < 16 else 1)
        workloads[core] = StreamWorkload()
    system = System(config, registry, workloads, mechanism=PabstMechanism())
    system.run_epochs(3)
    system.finalize()
    return system


class TestPaperScale:
    def test_machine_dimensions(self, paper_system):
        config = paper_system.config
        assert config.cores == 32
        assert config.num_mcs == 4
        assert len(paper_system.topology._tile_tile_latency) == 32

    def test_all_cores_made_progress(self, paper_system):
        for core in paper_system.cores.values():
            assert core.accesses_completed > 0

    def test_traffic_spread_over_all_controllers(self, paper_system):
        for controller in paper_system.controllers:
            assert controller.reads_accepted > 0

    def test_epochs_closed_at_10us_quantum(self, paper_system):
        assert len(paper_system.stats.epochs) == 3
        assert paper_system.stats.epochs[0].cycles == 20_000

    def test_governors_in_lockstep_at_scale(self, paper_system):
        assert paper_system.mechanism.multipliers_agree()
        assert len(paper_system.mechanism.pacers) == 32
