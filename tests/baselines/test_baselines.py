"""Unit tests for the baseline mechanisms."""

import pytest

from repro.baselines.none import NoQosMechanism
from repro.baselines.source_only import SourceOnlyMechanism
from repro.baselines.static_partition import StaticPartitionMechanism
from repro.baselines.target_only import TargetOnlyMechanism
from repro.core.config import PabstConfig
from repro.mechanisms import make_mechanism
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.records import AccessType, MemoryRequest
from repro.sim.system import System
from repro.workloads.stream import StreamWorkload


def make_system(mechanism, config=None):
    config = config or SystemConfig.small_test()
    registry = QoSRegistry()
    registry.define_class(0, "a", weight=1)
    registry.define_class(1, "b", weight=1)
    registry.assign_core(0, 0)
    registry.assign_core(1, 1)
    workloads = {core: StreamWorkload() for core in range(2)}
    return System(config, registry, workloads, mechanism=mechanism)


class TestNoQos:
    def test_name(self):
        assert NoQosMechanism().name == "none"

    def test_release_is_immediate(self):
        mechanism = NoQosMechanism()
        released = []
        req = MemoryRequest(addr=0, access=AccessType.READ, qos_id=0, core_id=0)
        mechanism.request_release(0, req, lambda: released.append(True))
        assert released == [True]

    def test_no_mc_policy_override(self):
        assert NoQosMechanism().mc_policy(0) is None

    def test_multiplier_not_applicable(self):
        assert NoQosMechanism().multiplier() == -1


class TestSourceOnly:
    def test_has_governors_no_arbiters(self):
        mechanism = SourceOnlyMechanism()
        make_system(mechanism)
        assert mechanism.pacers and not mechanism.arbiters
        assert mechanism.name == "source-only"

    def test_accepts_custom_config(self):
        mechanism = SourceOnlyMechanism(PabstConfig(inertia=9))
        assert mechanism.config.inertia == 9


class TestTargetOnly:
    def test_has_arbiters_no_governors(self):
        mechanism = TargetOnlyMechanism()
        make_system(mechanism)
        assert mechanism.arbiters and not mechanism.pacers
        assert mechanism.name == "target-only"

    def test_release_is_immediate_without_governor(self):
        mechanism = TargetOnlyMechanism()
        make_system(mechanism)
        released = []
        req = MemoryRequest(addr=0, access=AccessType.READ, qos_id=0, core_id=0)
        mechanism.request_release(0, req, lambda: released.append(True))
        assert released == [True]


def static_partition(config, share_divisor):
    """The config ``StaticPartitionMechanism`` hands to ``System``."""
    mechanism = StaticPartitionMechanism(share_divisor=share_divisor)
    return mechanism.prepare_config(config, QoSRegistry())


class TestStaticPartition:
    def test_quarter_bandwidth(self):
        base = SystemConfig.default_experiment()
        scaled = static_partition(base, 4)
        assert scaled.peak_bandwidth == pytest.approx(base.peak_bandwidth / 4)

    def test_identity(self):
        base = SystemConfig.default_experiment()
        assert static_partition(base, 1).peak_bandwidth == base.peak_bandwidth

    def test_identity_preserves_every_timing(self):
        base = SystemConfig.default_experiment()
        assert static_partition(base, 1).dram == base.dram

    def test_all_timings_stretch_by_the_divisor(self):
        base = SystemConfig.default_experiment()
        for divisor in (2, 3, 8):
            scaled = static_partition(base, divisor).dram
            assert scaled.t_rcd == base.dram.t_rcd * divisor
            assert scaled.t_cl == base.dram.t_cl * divisor
            assert scaled.t_rp == base.dram.t_rp * divisor
            assert scaled.t_burst == base.dram.t_burst * divisor

    def test_bandwidth_scales_one_over_n(self):
        base = SystemConfig.default_experiment()
        for divisor in (2, 3, 8):
            scaled = static_partition(base, divisor)
            assert scaled.peak_bandwidth == pytest.approx(
                base.peak_bandwidth / divisor
            )

    def test_validation(self):
        for divisor in (0, -1):
            with pytest.raises(ValueError):
                static_partition(SystemConfig(), divisor)

    def test_mechanism_validation(self):
        with pytest.raises(ValueError):
            StaticPartitionMechanism(share_divisor=0)

    def test_mechanism_rewrites_the_config(self):
        mechanism = StaticPartitionMechanism(share_divisor=2)
        system = make_system(mechanism)
        base = SystemConfig.small_test()
        assert system.config.dram == base.dram.frequency_scaled(2)

    def test_mechanism_defaults_to_class_count(self):
        system = make_system(StaticPartitionMechanism())
        base = SystemConfig.small_test()
        assert system.config.dram == base.dram.frequency_scaled(2)


class TestMechanismWrapperEquivalence:
    """Each baseline's registry entry reproduces its constructor
    byte-for-byte (same per-epoch stats records)."""

    def run_epochs(self, system, epochs=6):
        system.run_epochs(epochs)
        system.finalize()
        return system.stats.epochs

    @pytest.mark.parametrize(
        "name, ctor",
        [
            ("none", NoQosMechanism),
            ("source-only", SourceOnlyMechanism),
            ("target-only", TargetOnlyMechanism),
        ],
    )
    def test_registry_object_matches_direct_construction(self, name, ctor):
        via_registry = self.run_epochs(make_system(make_mechanism(name)))
        via_ctor = self.run_epochs(make_system(ctor()))
        assert via_registry == via_ctor
