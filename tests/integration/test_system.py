"""Integration tests for the assembled System."""

import pytest

from repro.core.pabst import PabstMechanism
from repro.qos.classes import QoSRegistry
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.chaser import ChaserWorkload
from repro.workloads.stream import StreamWorkload


def two_class_registry(l3_ways=None):
    registry = QoSRegistry()
    registry.define_class(0, "hi", weight=3, l3_ways=l3_ways)
    registry.define_class(1, "lo", weight=1, l3_ways=l3_ways)
    return registry


def make_system(cores=2, mechanism=None, config=None, workload_factory=None):
    config = config or SystemConfig.small_test()
    registry = two_class_registry()
    factory = workload_factory or StreamWorkload
    workloads = {}
    for core in range(cores):
        registry.assign_core(core, 0 if core < cores // 2 or cores == 1 else 1)
        workloads[core] = factory()
    return System(config, registry, workloads, mechanism=mechanism)


class TestConstruction:
    def test_requires_workloads(self):
        with pytest.raises(ValueError):
            System(SystemConfig.small_test(), two_class_registry(), {})

    def test_rejects_core_out_of_range(self):
        registry = two_class_registry()
        registry.assign_core(5, 0)
        with pytest.raises(ValueError):
            System(
                SystemConfig.small_test(), registry, {5: StreamWorkload()}
            )

    def test_rejects_unassigned_core(self):
        registry = two_class_registry()
        with pytest.raises(KeyError):
            System(
                SystemConfig.small_test(), registry, {0: StreamWorkload()}
            )

    def test_partition_built_from_class_ways(self):
        config = SystemConfig.small_test()
        registry = two_class_registry(l3_ways=8)
        registry.assign_core(0, 0)
        registry.assign_core(1, 1)
        system = System(
            config, registry,
            {0: StreamWorkload(), 1: StreamWorkload()},
        )
        partition = system.hierarchy.l3_partition
        assert partition is not None
        ways = [set(partition._allowed_cache[qos_id]) for qos_id in (0, 1)]
        assert ways[0] and ways[1] and not ways[0] & ways[1]

    def test_no_partition_when_no_ways_configured(self):
        system = make_system()
        assert system.hierarchy.l3_partition is None


class TestRunning:
    def test_run_advances_clock(self):
        system = make_system()
        system.run(1000)
        assert system.engine.now == 1000
        system.run(500)
        assert system.engine.now == 1500

    def test_run_epochs_closes_epoch_samples(self):
        system = make_system()
        system.run_epochs(5)
        assert len(system.stats.epochs) == 5

    def test_run_validation(self):
        with pytest.raises(ValueError):
            make_system().run(0)

    def test_traffic_flows_and_is_accounted(self):
        system = make_system()
        system.run_epochs(10)
        system.finalize()
        assert system.stats.total_bytes() > 0
        assert system.stats.bus_busy_cycles > 0
        for core_id, core in system.cores.items():
            assert core.accesses_completed > 0

    def test_deterministic_across_identical_runs(self):
        def run():
            system = make_system()
            system.run_epochs(10)
            system.finalize()
            return (
                system.stats.total_bytes(),
                system.stats.class_stats(0).reads_completed,
                system.engine.now,
            )

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            config = SystemConfig.small_test()
            registry = two_class_registry()
            registry.assign_core(0, 0)
            registry.assign_core(1, 1)
            system = System(
                config, registry,
                {0: ChaserWorkload(), 1: ChaserWorkload()},
                seed=seed,
            )
            system.run_epochs(5)
            return system.stats.total_bytes()

        assert run(1) != run(2)


class TestInvariants:
    def test_mshr_limits_respected(self):
        system = make_system(workload_factory=lambda: StreamWorkload(contexts=64))
        checked = []

        def probe():
            for core_id in system.cores:
                checked.append(
                    system._mshrs[core_id].outstanding
                    <= system.config.l2_mshrs
                )
            if system.engine.now < 5000:
                system.engine.schedule(100, probe)

        system.engine.schedule(0, probe)
        system.run(6000)
        assert checked and all(checked)

    def test_no_requests_lost(self):
        """Everything a core issued eventually completes or is in flight."""
        system = make_system()
        system.run_epochs(20)
        issued = sum(core.accesses_issued for core in system.cores.values())
        completed = sum(
            core.accesses_completed for core in system.cores.values()
        )
        outstanding = sum(
            system._mshrs[core].outstanding for core in system.cores
        )
        # completed + blocked/in-flight accounts for everything issued
        assert completed <= issued
        assert issued - completed <= outstanding + 64

    def test_blocked_at_mc_introspection(self):
        system = make_system()
        assert all(
            system.blocked_at_mc(mc) == 0
            for mc in range(system.config.num_mcs)
        )


class TestMechanismHooks:
    def test_pabst_hooks_invoked(self):
        mechanism = PabstMechanism()
        system = make_system(mechanism=mechanism)
        system.run_epochs(10)
        pacer = mechanism.pacers[0]
        assert pacer.released > 0
        assert mechanism.multiplier() >= 0

    def test_epoch_samples_carry_saturation(self):
        system = make_system(
            config=SystemConfig.small_test(),
            workload_factory=lambda: StreamWorkload(contexts=32),
        )
        system.run_epochs(10)
        assert any(e.saturated for e in system.stats.epochs)
