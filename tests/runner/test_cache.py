"""Tests for the on-disk result cache and source fingerprint."""

from repro.runner.cache import ResultCache
from repro.runner.fingerprint import source_fingerprint
from repro.runner.spec import RunSpec


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(figure="fig05")
        result = {"ok": True, "report": "table\n", "events": 123}
        cache.store(spec.spec_hash(), "f" * 16, spec.canonical_json(), result)
        assert cache.load(spec.spec_hash(), "f" * 16) == result
        assert len(cache) == 1

    def test_miss_on_unknown_spec(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.load("0" * 16, "f" * 16) is None

    def test_miss_on_different_fingerprint(self, tmp_path):
        """A source change must invalidate every cached result."""
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(figure="fig05")
        cache.store(spec.spec_hash(), "a" * 16, spec.canonical_json(), {"ok": True})
        assert cache.load(spec.spec_hash(), "b" * 16) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        import json

        from repro.obs.warnings import reset_warning_counters, warning_counts

        reset_warning_counters()
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(figure="fig05")
        path = cache.store(
            spec.spec_hash(), "f" * 16, spec.canonical_json(), {"ok": True}
        )
        # a missing file is an ordinary miss and stays silent
        assert cache.load(spec.spec_hash(), "e" * 16) is None
        assert warning_counts() == {}
        path.write_text("{not json", encoding="utf-8")
        assert cache.load(spec.spec_hash(), "f" * 16) is None
        assert warning_counts() == {"cache.corrupt_entry": 1}
        entry = {"spec_hash": spec.spec_hash(), "fingerprint": "f" * 16,
                 "result": [1]}
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.load(spec.spec_hash(), "f" * 16) is None
        assert warning_counts() == {"cache.corrupt_entry": 2}
        reset_warning_counters()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(figure="fig05")
        cache.store(spec.spec_hash(), "f" * 16, spec.canonical_json(), {"ok": True})
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_lru_eviction_drops_oldest(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "cache", max_entries=2)
        specs = [RunSpec(figure="fig05", seed=seed) for seed in range(3)]
        for age, spec in enumerate(specs[:2]):
            path = cache.store(
                spec.spec_hash(), "f" * 16, spec.canonical_json(), {"ok": True}
            )
            os.utime(path, (age, age))  # pin distinct, old mtimes
        cache.store(
            specs[2].spec_hash(), "f" * 16, specs[2].canonical_json(), {"ok": True}
        )
        assert len(cache) == 2
        assert cache.load(specs[0].spec_hash(), "f" * 16) is None
        assert cache.load(specs[2].spec_hash(), "f" * 16) is not None

    def test_load_refreshes_recency(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "cache", max_entries=2)
        specs = [RunSpec(figure="fig05", seed=seed) for seed in range(3)]
        for age, spec in enumerate(specs[:2]):
            path = cache.store(
                spec.spec_hash(), "f" * 16, spec.canonical_json(), {"ok": True}
            )
            os.utime(path, (age, age))
        # a hit on the oldest entry makes it the newest...
        assert cache.load(specs[0].spec_hash(), "f" * 16) is not None
        cache.store(
            specs[2].spec_hash(), "f" * 16, specs[2].canonical_json(), {"ok": True}
        )
        # ...so the eviction takes the other entry instead
        assert cache.load(specs[0].spec_hash(), "f" * 16) is not None
        assert cache.load(specs[1].spec_hash(), "f" * 16) is None

    def test_unbounded_when_cap_disabled(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=None)
        for seed in range(5):
            spec = RunSpec(figure="fig05", seed=seed)
            cache.store(
                spec.spec_hash(), "f" * 16, spec.canonical_json(), {"ok": True}
            )
        assert len(cache) == 5

    def test_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.stats()["entries"] == 0
        spec = RunSpec(figure="fig05")
        cache.store(spec.spec_hash(), "f" * 16, spec.canonical_json(), {"ok": True})
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["directory"] == str(tmp_path / "cache")


class TestSourceFingerprint:
    def test_stable_within_process(self):
        assert source_fingerprint() == source_fingerprint()

    def test_sensitive_to_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = source_fingerprint(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n")
        # bypass the per-root memo by re-reading through a fresh module state
        import repro.runner.fingerprint as fp

        fp._cached = None
        after = source_fingerprint(tmp_path)
        assert before != after
