"""Unit tests for the counter/gauge registry."""

import pickle

import pytest

from repro.obs.registry import NULL_COUNTER, ObsCounter, Registry


class Component:
    def __init__(self):
        self.accepted = 0
        self.depth = 3


class TestRegistration:
    def test_counter_provider_reads_live_attribute(self):
        registry = Registry()
        component = Component()
        registry.register_counter("mc0.accepted", component, "accepted")
        assert registry.counters() == {"mc0.accepted": 0}
        component.accepted += 7
        assert registry.counters() == {"mc0.accepted": 7}

    def test_gauge_provider(self):
        registry = Registry()
        component = Component()
        registry.register_gauge("mc0.depth", component, "depth")
        component.depth = 11
        assert registry.gauges() == {"mc0.depth": 11}

    def test_duplicate_name_rejected_across_kinds(self):
        registry = Registry()
        component = Component()
        registry.register_counter("x", component, "accepted")
        with pytest.raises(ValueError):
            registry.register_counter("x", component, "accepted")
        with pytest.raises(ValueError):
            registry.register_gauge("x", component, "depth")

    def test_missing_attribute_rejected_at_registration(self):
        registry = Registry()
        with pytest.raises(AttributeError):
            registry.register_counter("x", Component(), "nope")

    def test_len_contains_and_names(self):
        registry = Registry()
        component = Component()
        registry.register_counter("a", component, "accepted")
        registry.register_gauge("b", component, "depth")
        assert len(registry) == 2
        assert "a" in registry and "b" in registry and "c" not in registry
        assert list(registry.names()) == ["a", "b"]

    def test_snapshot_is_jsonable(self):
        import json

        registry = Registry()
        registry.register_counter("a", Component(), "accepted")
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == {
            "counters": {"a": 0},
            "gauges": {},
        }


class TestOwnedCounters:
    def test_counter_mints_once_per_name(self):
        registry = Registry()
        counter = registry.counter("warnings")
        again = registry.counter("warnings")
        assert counter is again
        counter.add()
        counter.add(4)
        assert registry.counters() == {"warnings": 5}

    def test_disabled_registry_hands_back_null_counter(self):
        registry = Registry(enabled=False)
        counter = registry.counter("anything")
        assert counter is NULL_COUNTER
        counter.add(100)  # no-op, no error
        assert counter.value == 0
        assert len(registry) == 0

    def test_obs_counter_repr_and_monotonic(self):
        counter = ObsCounter("x")
        counter.add(3)
        assert counter.value == 3


class TestPickling:
    def test_registry_with_providers_round_trips(self):
        # (obj, attr) providers pickle where a lambda provider could not
        registry = Registry()
        component = Component()
        component.accepted = 9
        registry.register_counter("mc0.accepted", component, "accepted")
        registry.counter("owned").add(2)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counters() == {"mc0.accepted": 9, "owned": 2}
