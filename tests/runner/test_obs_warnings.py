"""The runner's tolerated I/O failures must be counted, not swallowed.

Two sites in :mod:`repro.runner.cache` historically did ``except
OSError: pass``; they now route through
:func:`repro.obs.warnings.obs_warn`, which logs and bumps a named counter
that ``repro sweep`` and ``repro arena`` print.  These tests force each failure
twice over: by monkeypatching the failing call (works everywhere, even
as root) and by a read-only store directory (skipped under root, where
permission bits do not apply).
"""

import logging
import os
from pathlib import Path

import pytest

from repro.obs.warnings import reset_warning_counters, warning_counts
from repro.runner.cache import ResultCache
from repro.runner.spec import RunSpec

requires_permission_bits = pytest.mark.skipif(
    os.geteuid() == 0, reason="root bypasses directory permission bits"
)


@pytest.fixture(autouse=True)
def isolated_counters():
    reset_warning_counters()
    yield
    reset_warning_counters()


def store_result(cache, seed=0):
    spec = RunSpec(figure="fig05", seed=seed)
    cache.store(spec.spec_hash(), "f" * 16, spec.canonical_json(), {"ok": True})
    return spec


class TestResultCacheWarnings:
    def test_utime_failure_counts_and_logs(self, tmp_path, monkeypatch, caplog):
        cache = ResultCache(tmp_path / "cache")
        spec = store_result(cache)

        def broken_utime(*args, **kwargs):
            raise OSError("read-only store")

        monkeypatch.setattr(os, "utime", broken_utime)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            assert cache.load(spec.spec_hash(), "f" * 16) == {"ok": True}
        assert warning_counts() == {"cache.utime_failed": 1}
        assert "could not refresh recency" in caplog.text

    def test_evict_unlink_failure_counts(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache", max_entries=1)
        store_result(cache, seed=0)

        original_unlink = Path.unlink

        def broken_unlink(self, *args, **kwargs):
            if self.suffix == ".json":
                raise OSError("permission denied")
            return original_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", broken_unlink)
        store_result(cache, seed=1)  # beyond the cap -> eviction attempt
        assert warning_counts() == {"cache.evict_unlink_failed": 1}

    @requires_permission_bits
    def test_read_only_store_still_serves_hits(self, tmp_path):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        spec = store_result(cache)
        directory.chmod(0o555)
        try:
            assert cache.load(spec.spec_hash(), "f" * 16) == {"ok": True}
        finally:
            directory.chmod(0o755)
        assert warning_counts() == {"cache.utime_failed": 1}
