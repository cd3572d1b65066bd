"""On-disk cache for sweep results.

One JSON file per (spec hash, source fingerprint) pair under
``.repro-cache/``.  Entries store the byte-exact report text plus the
timing metadata of the original run, so a cache hit reproduces exactly
what a live run would have printed.  Stale entries (older fingerprints)
never match on load and are reclaimed by the LRU cap: the store evicts
the least-recently-used entries beyond ``max_entries`` (hits refresh
recency via mtime), so the cache stays bounded across source changes
instead of growing a dead file per edited line of simulator code.
``repro cache [--clear]`` exposes the same accounting on the CLI.
Tolerated failures (an unreadable recency stamp, a failed eviction, a
corrupt entry) are counted through :mod:`repro.obs.warnings`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.obs.warnings import obs_warn

__all__ = ["ResultCache"]

DEFAULT_CACHE_DIR = ".repro-cache"

#: Default LRU cap.  A full nine-figure sweep is a few dozen cells, so
#: 256 holds several sweeps' worth of results across source revisions.
DEFAULT_MAX_RESULTS = 256


class ResultCache:
    """Spec-hash + fingerprint keyed store of finished run results."""

    def __init__(
        self,
        directory: Path | str = DEFAULT_CACHE_DIR,
        max_entries: int | None = DEFAULT_MAX_RESULTS,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.directory = Path(directory)
        self.max_entries = max_entries

    def _path(self, spec_hash: str, fingerprint: str) -> Path:
        return self.directory / f"{spec_hash}-{fingerprint}.json"

    def load(self, spec_hash: str, fingerprint: str) -> dict[str, Any] | None:
        """The cached result payload, or None on miss/corruption.

        A missing file is an ordinary miss.  An entry that exists but
        does not parse, or parses to the wrong shape, is also a miss,
        counted as ``cache.corrupt_entry``.
        """
        path = self._path(spec_hash, fingerprint)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            return None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            obs_warn(
                "cache.corrupt_entry",
                "result cache entry %s is not valid JSON: %s",
                path,
                exc,
            )
            return None
        result = entry.get("result") if isinstance(entry, dict) else None
        if (
            not isinstance(result, dict)
            or entry.get("spec_hash") != spec_hash
            or entry.get("fingerprint") != fingerprint
        ):
            obs_warn(
                "cache.corrupt_entry",
                "result cache entry %s has the wrong shape",
                path,
            )
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError as exc:
            # tolerated (a read-only store still serves hits) but not
            # silent: stale recency skews LRU eviction
            obs_warn(
                "cache.utime_failed",
                "result cache could not refresh recency of %s: %s",
                path,
                exc,
            )
        return result

    def store(
        self,
        spec_hash: str,
        fingerprint: str,
        spec_json: str,
        result: dict[str, Any],
    ) -> Path:
        """Persist one run's result; atomic via rename."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(spec_hash, fingerprint)
        entry = {
            "spec_hash": spec_hash,
            "fingerprint": fingerprint,
            "spec": json.loads(spec_json),
            "result": result,
        }
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(entry, handle, indent=2, sort_keys=True)
            handle.write("\n")
        tmp.replace(path)
        self._evict()
        return path

    def _entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"))

    def _evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``."""
        if self.max_entries is None:
            return 0
        entries = self._entries()
        if len(entries) <= self.max_entries:
            return 0
        removed = 0
        by_age = sorted(entries, key=lambda p: (p.stat().st_mtime, p.name))
        for path in by_age[: len(entries) - self.max_entries]:
            try:
                path.unlink()
                removed += 1
            except OSError as exc:
                obs_warn(
                    "cache.evict_unlink_failed",
                    "result cache could not evict %s: %s",
                    path,
                    exc,
                )
        return removed

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            path.unlink()
            removed += 1
        return removed

    def stats(self) -> dict[str, Any]:
        """Entry count and on-disk footprint, as ``repro cache`` prints them."""
        entries = self._entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "max_entries": self.max_entries,
        }

    def __len__(self) -> int:
        return len(self._entries())
