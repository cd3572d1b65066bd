"""Tests for the per-controller-governor alternative (Section III-C1).

The paper's baseline broadcasts one wired-OR SAT signal; it notes that
uneven traffic can then leave controllers underutilized, and sketches the
alternative implemented here: a SAT signal per controller and a governor
per controller at every source.
"""

from dataclasses import replace

import pytest

from repro.core.config import PabstConfig
from repro.core.pabst import PabstMechanism
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.stream import StreamWorkload


def make_system(per_controller: bool, skewed: bool = False, cores=4):
    config = SystemConfig.default_experiment(cores=cores, num_mcs=2)
    if skewed:
        config = replace(config, mc_interleave="low-bits")
    registry = QoSRegistry()
    registry.define_class(0, "hi", weight=3, l3_ways=8)
    registry.define_class(1, "lo", weight=1, l3_ways=8)
    workloads = {}
    for core in range(cores):
        registry.assign_core(core, 0 if core < cores // 2 else 1)
        if skewed:
            # a 128B stride over a low-bits interleave touches only even
            # lines, i.e. only controller 0 -- the hot-spot scenario
            workloads[core] = StreamWorkload(stride_bytes=128)
        else:
            workloads[core] = StreamWorkload(stride_bytes=64)
    mechanism = PabstMechanism(
        PabstConfig(per_controller_governors=per_controller)
    )
    system = System(config, registry, workloads, mechanism=mechanism)
    return system, mechanism


class TestAttachment:
    def test_one_governor_per_core_per_mc(self):
        system, mechanism = make_system(per_controller=True)
        assert len(mechanism.mc_governors) == 4 * 2
        assert not mechanism.governors
        assert mechanism.multiplier() >= 0

    def test_global_mode_unchanged(self):
        system, mechanism = make_system(per_controller=False)
        assert len(mechanism.governors) == 4
        assert not mechanism.mc_governors


class TestLockstep:
    def test_per_mc_groups_stay_in_lockstep(self):
        system, mechanism = make_system(per_controller=True)
        system.run_epochs(15)
        assert mechanism.multipliers_agree()


class TestSkewedTraffic:
    def test_low_bits_interleave_concentrates_stride_128(self):
        system, _ = make_system(per_controller=False, skewed=True)
        system.run_epochs(20)
        system.finalize()
        reads = [mc.reads_accepted for mc in system.controllers]
        assert reads[0] > 10 * max(1, reads[1])

    def test_per_controller_governors_decouple_hot_and_cold(self):
        """Under hot-spotted traffic, the hot controller's governor
        throttles while the cold controller's governor opens up."""
        system, mechanism = make_system(per_controller=True, skewed=True)
        system.run_epochs(40)
        hot = mechanism.mc_governors[(0, 0)].multiplier
        cold = mechanism.mc_governors[(0, 1)].multiplier
        assert hot > cold
        assert cold == 0  # nothing ever saturates the idle controller

    def test_shares_still_enforced_per_controller(self):
        system, mechanism = make_system(per_controller=True, skewed=True)
        system.run_epochs(100)
        system.finalize()
        hi = sum(e.bytes_by_class.get(0, 0) for e in system.stats.epochs[40:])
        lo = sum(e.bytes_by_class.get(1, 0) for e in system.stats.epochs[40:])
        assert hi / (hi + lo) == pytest.approx(0.75, abs=0.07)

    def test_uniform_traffic_equivalent_between_modes(self):
        """With the paper's uniform hash, both designs split ~3:1."""
        for per_controller in (False, True):
            system, _ = make_system(per_controller=per_controller)
            system.run_epochs(100)
            system.finalize()
            hi = sum(
                e.bytes_by_class.get(0, 0) for e in system.stats.epochs[40:]
            )
            lo = sum(
                e.bytes_by_class.get(1, 0) for e in system.stats.epochs[40:]
            )
            assert hi / (hi + lo) == pytest.approx(0.75, abs=0.07)
