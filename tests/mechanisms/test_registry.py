"""Tests for the mechanism zoo registry."""

import pytest

from repro.baselines.none import NoQosMechanism
from repro.baselines.static_partition import StaticPartitionMechanism
from repro.core.pabst import PabstMechanism
from repro.mechanisms import (
    ALL_MECHANISMS,
    MECHANISMS,
    DpqMechanism,
    LmsArMechanism,
    PerBankRegulatorMechanism,
    make_mechanism,
    register_mechanism,
)
from repro.sim.mechanism import QoSMechanism


class TestRegistry:
    def test_all_expected_names(self):
        assert ALL_MECHANISMS == (
            "none",
            "static-partition",
            "source-only",
            "target-only",
            "pabst",
            "dpq",
            "perbank",
            "lms-ar",
        )

    def test_factories_build_the_right_types(self):
        assert isinstance(make_mechanism("none"), NoQosMechanism)
        assert isinstance(
            make_mechanism("static-partition"), StaticPartitionMechanism
        )
        assert isinstance(make_mechanism("pabst"), PabstMechanism)
        assert isinstance(make_mechanism("dpq"), DpqMechanism)
        assert isinstance(make_mechanism("perbank"), PerBankRegulatorMechanism)
        assert isinstance(make_mechanism("lms-ar"), LmsArMechanism)

    def test_every_name_matches_its_mechanism(self):
        for name in ALL_MECHANISMS:
            mechanism = make_mechanism(name)
            assert isinstance(mechanism, QoSMechanism)
            assert mechanism.name == name

    def test_fresh_instance_per_call(self):
        assert make_mechanism("dpq") is not make_mechanism("dpq")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown mechanism"):
            make_mechanism("does-not-exist")

    def test_register_rejects_shadowing(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mechanism("pabst", PabstMechanism)

    def test_register_and_remove_custom(self):
        register_mechanism("custom-test-only", QoSMechanism)
        try:
            assert isinstance(
                make_mechanism("custom-test-only"), QoSMechanism
            )
        finally:
            del MECHANISMS["custom-test-only"]
