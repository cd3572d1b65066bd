"""Unit tests for the process-global warning counters."""

import logging

import pytest

from repro.obs.warnings import obs_warn, reset_warning_counters, warning_counts


@pytest.fixture(autouse=True)
def isolated_counters():
    reset_warning_counters()
    yield
    reset_warning_counters()


def test_counts_by_name():
    obs_warn("cache.utime_failed", "could not touch %s", "x.json")
    obs_warn("cache.utime_failed", "could not touch %s", "y.json")
    obs_warn("cache.evict_unlink_failed", "could not evict %s", "z.json")
    assert warning_counts() == {
        "cache.utime_failed": 2,
        "cache.evict_unlink_failed": 1,
    }


def test_logs_through_repro_obs_logger(caplog):
    with caplog.at_level(logging.WARNING, logger="repro.obs"):
        obs_warn("cache.utime_failed", "could not touch %s", "x.json")
    assert "could not touch x.json" in caplog.text
    assert caplog.records[0].name == "repro.obs"


def test_reset_clears():
    obs_warn("a", "msg")
    reset_warning_counters()
    assert warning_counts() == {}


def test_snapshot_is_a_copy():
    obs_warn("a", "msg")
    snapshot = warning_counts()
    snapshot["a"] = 99
    assert warning_counts()["a"] == 1
