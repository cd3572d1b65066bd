"""Unit tests for the shared experiment plumbing."""

import pytest

from repro.baselines.none import NoQosMechanism
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.mechanisms import make_mechanism
from repro.sim.config import SystemConfig
from repro.workloads.stream import StreamWorkload


def spec(qos_id=0, cores=2, weight=1, ways=None):
    return ClassSpec(
        qos_id=qos_id,
        name=f"c{qos_id}",
        weight=weight,
        cores=cores,
        workload_factory=StreamWorkload,
        l3_ways=ways,
    )


class TestMakeMechanism:
    def test_known_names(self):
        for name in ("none", "source-only", "target-only", "pabst"):
            assert make_mechanism(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown mechanism"):
            make_mechanism("fq")


class TestBuildSystem:
    def test_cores_assigned_in_spec_order(self):
        system = build_system([spec(0, cores=2), spec(1, cores=3)])
        assert system.registry.cores_in_class(0) == [0, 1]
        assert system.registry.cores_in_class(1) == [2, 3, 4]
        assert len(system.cores) == 5

    def test_each_core_gets_fresh_workload(self):
        system = build_system([spec(0, cores=3)])
        # identity check only; the value never feeds simulation state
        workloads = {id(core.workload) for core in system.cores.values()}  # repro: noqa[DET001]
        assert len(workloads) == 3

    def test_default_config_sized_to_specs(self):
        system = build_system([spec(0, cores=2), spec(1, cores=2)])
        assert system.config.cores >= 4

    def test_explicit_config_capacity_checked(self):
        with pytest.raises(ValueError):
            build_system(
                [spec(0, cores=4)], config=SystemConfig.small_test()
            )

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            build_system([])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClassSpec(0, "x", weight=1, cores=0, workload_factory=StreamWorkload)


class TestRunSystem:
    def test_result_summarizes_steady_window(self):
        system = build_system(
            [spec(0, cores=1), spec(1, cores=1)], mechanism=NoQosMechanism()
        )
        result = run_system(system, epochs=10, warmup_epochs=3)
        assert len(result.timeline) == 10
        assert result.cycles == 10 * system.config.epoch_cycles
        assert 0.0 <= result.share(0) <= 1.0
        assert result.total_utilization() > 0.0
        assert result.ipc(0) > 0.0

    def test_warmup_must_be_shorter_than_run(self):
        system = build_system([spec(0)])
        with pytest.raises(ValueError):
            run_system(system, epochs=5, warmup_epochs=5)
