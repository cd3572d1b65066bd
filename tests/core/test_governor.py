"""Unit and property tests for the governor state machine (Tables I-II).

These tests pin down the mechanism invariants the paper states in prose:
M moves against the SAT signal, delta-M shrinks on direction flips and
grows after `inertia` stable epochs, state stays in small integers, and —
the distributed-lockstep property — identical inputs produce identical
state on independent instances.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import PabstConfig
from repro.core.governor import DM_MAX, M_MAX, Governor, SystemMonitor
from repro.core.pacer import Pacer
from repro.qos.classes import QoSRegistry
from repro.sim.engine import Engine


def make_monitor(m=None, **kwargs):
    monitor = SystemMonitor(PabstConfig(**kwargs))
    if m is not None:
        monitor.m = m
    return monitor


class TestDirection:
    def test_m_rises_on_saturation(self):
        monitor = make_monitor(m=10)
        monitor.on_epoch(saturated=True)
        assert monitor.m > 10

    def test_m_falls_when_unsaturated(self):
        monitor = make_monitor(m=10)
        monitor.on_epoch(saturated=False)
        assert monitor.m < 10

    def test_m_never_negative(self):
        monitor = make_monitor()
        assert monitor.m == 0
        for _ in range(10):
            monitor.on_epoch(saturated=False)
        assert monitor.m == 0

    def test_m_capped_at_max(self):
        monitor = make_monitor()
        for _ in range(200):
            monitor.on_epoch(saturated=True)
        assert monitor.m == M_MAX


class TestDeltaM:
    def test_dm_grows_exponentially_after_inertia(self):
        monitor = make_monitor(inertia=3)
        dms = []
        for _ in range(8):
            monitor.on_epoch(saturated=True)
            dms.append(monitor.dm)
        # once E reaches inertia the step doubles every epoch
        assert dms[-1] > dms[2]
        assert dms[-1] == min(2 * dms[-2], DM_MAX)

    def test_dm_shrinks_on_direction_flip(self):
        monitor = make_monitor(inertia=2)
        for _ in range(6):
            monitor.on_epoch(saturated=True)
        grown = monitor.dm
        monitor.on_epoch(saturated=False)
        assert monitor.dm == max(1, grown >> 2)

    def test_dm_floor_is_one(self):
        monitor = make_monitor()
        for saturated in (True, False, True, False, True, False):
            monitor.on_epoch(saturated)
        assert monitor.dm >= 1

    def test_dm_capped(self):
        monitor = make_monitor()
        for _ in range(50):
            monitor.on_epoch(saturated=True)
        assert monitor.dm == DM_MAX

    def test_noisy_sat_keeps_steps_small(self):
        """Alternating SAT (system near equilibrium) pins delta-M low."""
        monitor = make_monitor()
        for i in range(40):
            monitor.on_epoch(saturated=bool(i % 2))
        assert monitor.dm <= 2

    def test_e_resets_on_flip(self):
        monitor = make_monitor()
        for _ in range(5):
            monitor.on_epoch(saturated=True)
        assert monitor.e >= 4
        monitor.on_epoch(saturated=False)
        assert monitor.e == 0


class TestPhase:
    def test_phase_labels(self):
        monitor = make_monitor(inertia=2)
        monitor.on_epoch(saturated=False)
        assert monitor.phase.startswith("rate-up")
        for _ in range(4):
            monitor.on_epoch(saturated=True)
        assert monitor.phase.startswith("rate-down")
        assert monitor.phase.endswith("dm-up")


class TestLockstep:
    @given(sat=st.lists(st.booleans(), min_size=1, max_size=200))
    def test_identical_inputs_give_identical_state(self, sat):
        """The paper's distributed-governor claim (Section III-B)."""
        monitors = [make_monitor() for _ in range(4)]
        for signal in sat:
            for monitor in monitors:
                monitor.on_epoch(signal)
        states = {(m.m, m.dm, m.e, m.rate_direction_up) for m in monitors}
        assert len(states) == 1

    @given(sat=st.lists(st.booleans(), min_size=1, max_size=300))
    def test_state_stays_in_small_integers(self, sat):
        """Implementable with shifts/adds on small registers (III-D)."""
        config = PabstConfig()
        monitor = SystemMonitor(config)
        for signal in sat:
            monitor.on_epoch(signal)
            assert 0 <= monitor.m <= M_MAX
            assert 1 <= monitor.dm <= DM_MAX


class TestGovernorRateGeneration:
    def _make(self, weight_hi=3, weight_lo=1, threads=2):
        registry = QoSRegistry()
        registry.define_class(0, "hi", weight=weight_hi)
        registry.define_class(1, "lo", weight=weight_lo)
        for core in range(threads):
            registry.assign_core(core, 0)
        for core in range(threads, 2 * threads):
            registry.assign_core(core, 1)
        engine = Engine()
        config = PabstConfig()
        governors = []
        for core in range(2 * threads):
            qos_id = registry.class_of_core(core)
            pacer = Pacer(engine, registry.stride_scale)
            governors.append(Governor(core, qos_id, registry, config, pacer))
        return governors, registry

    def test_periods_inverse_to_weights(self):
        """Eq. 5: rates stay proportional to weights at any M."""
        governors, registry = self._make(weight_hi=3, weight_lo=1)
        for governor in governors:
            for _ in range(5):
                governor.on_epoch(saturated=True)
        hi = next(g for g in governors if g.qos_id == 0)
        lo = next(g for g in governors if g.qos_id == 1)
        assert hi.multiplier == lo.multiplier
        # Eq. 4 splits a class's rate evenly: its threads share one period
        for qos_id in (0, 1):
            periods = {
                g.source_period_numerator() for g in governors if g.qos_id == qos_id
            }
            assert len(periods) == 1
        ratio = lo.source_period_numerator() / hi.source_period_numerator()
        assert ratio == pytest.approx(3.0, rel=0.02)

    def test_period_scales_with_thread_count(self):
        governors, registry = self._make(threads=2)
        hi = next(g for g in governors if g.qos_id == 0)
        hi.monitor.m = 10
        base = hi.source_period_numerator()
        registry.assign_core(99, 0)  # third thread joins the class
        assert hi.source_period_numerator() == pytest.approx(base * 3 / 2)

    def test_epoch_pushes_period_into_pacer(self):
        governors, _ = self._make()
        governor = governors[0]
        governor.on_epoch(saturated=True)
        expected = governor.source_period_numerator()
        assert governor.pacer.period_cycles == pytest.approx(
            expected / governor.pacer.f_scale
        )

    def test_m_zero_means_unthrottled(self):
        governors, _ = self._make()
        governor = governors[0]
        governor.on_epoch(saturated=False)
        assert governor.multiplier == 0
        assert governor.source_period_numerator() == 0
