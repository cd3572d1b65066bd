"""Unit tests for the saturation monitor (Section III-C1)."""

import pytest

from repro.core.saturation import SaturationMonitor
from repro.dram.controller import MemoryController
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.records import AccessType, MemoryRequest
from repro.sim.stats import Stats
from repro.sim.topology import AddressMap


def make_controllers(count=2):
    config = SystemConfig.small_test()
    engine = Engine()
    stats = Stats()
    address_map = AddressMap(config, num_slices=config.cores)
    controllers = [
        MemoryController(engine, mc_id, config, address_map, stats)
        for mc_id in range(count)
    ]
    return engine, controllers, config


def fill_reads(engine, controller, depth, hold_cycles=2000):
    """Keep the read queue topped up to ``depth`` for ``hold_cycles``."""
    state = {"next": 0}
    deadline = engine.now + hold_cycles

    def feed():
        while len(controller.read_queue) < depth:
            req = MemoryRequest(
                addr=state["next"] * 64, access=AccessType.READ,
                qos_id=0, core_id=0,
            )
            req.created_at = engine.now
            if not controller.try_enqueue(req):
                break
            state["next"] += 1
        if engine.now < deadline:
            engine.schedule(20, feed)

    feed()
    engine.run_until(deadline)


class TestWiredOr:
    def test_idle_controllers_not_saturated(self):
        engine, controllers, _ = make_controllers()
        monitor = SaturationMonitor(controllers)
        engine.run_until(100)
        assert monitor.sample() is False
        assert monitor.last_signal is False

    def test_one_busy_controller_raises_global_sat(self):
        engine, controllers, config = make_controllers()
        monitor = SaturationMonitor(controllers)
        fill_reads(engine, controllers[0], config.frontend_read_queue)
        assert monitor.sample() is True
        assert monitor.last_occupancies[0] > monitor.last_occupancies[1]

    def test_light_load_stays_unsaturated(self):
        engine, controllers, config = make_controllers()
        monitor = SaturationMonitor(controllers)
        fill_reads(engine, controllers[0], 1)
        assert monitor.sample() is False

    def test_sampling_resets_window(self):
        engine, controllers, config = make_controllers()
        monitor = SaturationMonitor(controllers)
        fill_reads(engine, controllers[0], config.frontend_read_queue)
        assert monitor.sample() is True
        # queue has drained; a fresh idle window reads unsaturated
        engine.run_until(engine.now + 2000)
        assert monitor.sample() is False


class TestValidation:
    def test_needs_controllers(self):
        with pytest.raises(ValueError):
            SaturationMonitor([])
