"""Unit tests for the QoSMechanism base (the do-nothing mechanism)."""

from repro.sim.mechanism import QoSMechanism
from repro.sim.records import AccessType, MemoryRequest


class TestDefaults:
    def test_release_passthrough(self):
        mechanism = QoSMechanism()
        fired = []
        req = MemoryRequest(addr=0, access=AccessType.READ, qos_id=0, core_id=0)
        mechanism.request_release(0, req, lambda: fired.append(True))
        assert fired == [True]

    def test_no_policy(self):
        assert QoSMechanism().mc_policy(0) is None

    def test_hooks_are_noops(self):
        mechanism = QoSMechanism()
        req = MemoryRequest(addr=0, access=AccessType.READ, qos_id=0, core_id=0)
        mechanism.on_response(0, req)
        mechanism.on_epoch(saturated=True)
        mechanism.attach(None)  # type: ignore[arg-type]

    def test_multiplier_sentinel(self):
        assert QoSMechanism().multiplier() == -1

    def test_name(self):
        assert QoSMechanism().name == "none"

    def test_no_bound_report(self):
        assert QoSMechanism().bound_report() is None

    def test_prepare_config_is_identity(self):
        mechanism = QoSMechanism()
        sentinel = object()
        assert mechanism.prepare_config(sentinel, None) is sentinel


class TestUniformCounters:
    """Every mechanism inherits the ``mechanism.*`` counter namespace
    (the register_obs no-op bugfix): the base hooks count, so even a
    non-PABST mechanism reports epochs/releases/writebacks."""

    def test_fresh_counters_are_zero(self):
        mechanism = QoSMechanism()
        assert mechanism.obs_epochs == 0
        assert mechanism.obs_releases_granted == 0
        assert mechanism.obs_releases_denied == 0
        assert mechanism.obs_writeback_charges == 0

    def test_hooks_tick_the_counters(self):
        mechanism = QoSMechanism()
        req = MemoryRequest(addr=0, access=AccessType.READ, qos_id=0, core_id=0)
        mechanism.request_release(0, req, lambda: None)
        mechanism.request_release(0, req, lambda: None)
        mechanism.on_epoch(saturated=False)
        assert mechanism.obs_releases_granted == 2
        assert mechanism.obs_writeback_charges == 0
        assert mechanism.obs_epochs == 1

    def test_counters_are_per_instance(self):
        a, b = QoSMechanism(), QoSMechanism()
        a.on_epoch(saturated=False)
        assert a.obs_epochs == 1
        assert b.obs_epochs == 0

    def test_register_obs_provides_the_namespace(self):
        from repro.obs.registry import Registry

        registry = Registry()
        mechanism = QoSMechanism()
        mechanism.register_obs(registry)
        mechanism.on_epoch(saturated=False)
        counters = registry.counters()
        assert counters["mechanism.epochs"] == 1
        assert counters["mechanism.releases_granted"] == 0
        assert counters["mechanism.releases_denied"] == 0
        assert counters["mechanism.writeback_charges"] == 0

    def test_pabst_counters_include_pacer_activity(self):
        """PABST's overrides merge the pacers' own books into the
        uniform counters instead of double-counting."""
        from repro.core.pabst import PabstMechanism
        from repro.qos.classes import QoSRegistry
        from repro.sim.config import SystemConfig
        from repro.sim.system import System
        from repro.workloads.stream import StreamWorkload

        config = SystemConfig.small_test()
        registry = QoSRegistry()
        registry.define_class(0, "a", weight=3)
        registry.define_class(1, "b", weight=1)
        registry.assign_core(0, 0)
        registry.assign_core(1, 1)
        workloads = {core: StreamWorkload() for core in range(2)}
        mechanism = PabstMechanism()
        system = System(config, registry, workloads, mechanism=mechanism)
        system.run_epochs(6)
        system.finalize()
        assert mechanism.obs_epochs == 6
        released = sum(p.released for p in mechanism.pacers.values())
        released += sum(p.released for p in mechanism.mc_pacers.values())
        assert mechanism.obs_releases_granted == released
        assert released > 0
