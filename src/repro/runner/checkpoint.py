"""Deterministic simulation checkpoints with warm-start forking.

Every figure experiment runs a warm-up window before its measurement
window, and sweep cells that differ only in measurement-phase knobs
re-simulate the *identical* warm-up prefix from scratch.  This module
removes that redundancy the way cycle-level simulators do (gem5-style
SimPoint checkpointing): snapshot the full simulator state at the
warm-up/measurement boundary once, then fork every measurement run from
the snapshot.

The snapshot is a versioned pickle of the entire :class:`~repro.sim.system.System`
object graph — timing-wheel buckets + overflow heap + sequence counter,
derived RNG streams, cache tag stores, MSHR files, governor/arbiter/pacer
virtual clocks, in-flight :class:`~repro.sim.records.MemoryRequest`s, and
stats accumulators.  Because the simulator is pure Python with integer
time and named RNG streams, unpickling reproduces the machine *exactly*;
the one piece of process-global state — the request-id counter that
scheduler tie-breaks read — is carried as a watermark and re-established
on restore (see :func:`restore_system`).  A restored run is therefore
byte-identical to a cold run that simulated the warm-up itself; the
golden tests in ``tests/experiments/test_warm_start.py`` pin that.

Checkpoints are content-addressed by a **warm-up prefix hash** over
everything that determines the warm-up trajectory: the full
:class:`~repro.sim.config.SystemConfig`, QoS classes and core
assignments, per-core workload parameters, mechanism parameters, master
seed, warm-up epoch count, and the source fingerprint.  Two sweep cells
whose prefixes hash equal share one checkpoint; any source change
invalidates every checkpoint, exactly like the result cache.

This is the **only** module in the package allowed to import ``pickle``
(lint rule PERF003): serialization of simulator state is a versioned,
validated format, and confining it here keeps every producer and
consumer on that format.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.warnings import obs_warn
from repro.runner.fingerprint import source_fingerprint
from repro.sim.records import advance_request_ids, request_id_watermark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import System

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "DEFAULT_CHECKPOINT_DIR",
    "describe_component",
    "restore_system",
    "snapshot_system",
    "warmup_prefix_hash",
    "warmup_prefix_key",
]

#: Bump when the envelope layout or the semantics of restored state
#: change; old checkpoints then read as misses instead of garbage.
#: v2: System grew the obs registry (``system.obs``) and the tracer
#: engine slot — v1 snapshots unpickle without them, so they must miss.
CHECKPOINT_VERSION = 2

DEFAULT_CHECKPOINT_DIR = ".repro-cache/checkpoints"

#: Checkpoints are far larger than result-cache entries (a full system
#: snapshot is ~1 MB), so the store's LRU cap defaults much lower.
DEFAULT_MAX_CHECKPOINTS = 64


# ----------------------------------------------------------------------
# warm-up prefix identity
# ----------------------------------------------------------------------
def _scalar(value: Any) -> bool:
    return isinstance(value, (bool, int, float, str, type(None)))


def describe_component(obj: Any) -> dict[str, Any]:
    """JSON-able description of one component's *configuration* state.

    Captures the class qualname plus every scalar instance attribute
    (and scalar-only tuples/lists, and nested dataclasses).  Non-scalar
    attributes — engine references, derived caches, bound cores — are
    build products of the described parameters, so omitting them loses
    no identity.  Called on workloads and mechanisms *before* any cycle
    runs, so the description is the constructor-equivalent state.
    """
    fields: dict[str, Any] = {}
    for name in sorted(vars(obj)):
        value = vars(obj)[name]
        if _scalar(value):
            fields[name] = value
        elif isinstance(value, (tuple, list)) and all(_scalar(v) for v in value):
            fields[name] = list(value)
        elif is_dataclass(value) and not isinstance(value, type):
            fields[name] = asdict(value)
    return {
        "type": f"{type(obj).__module__}.{type(obj).__qualname__}",
        "fields": fields,
    }


def warmup_prefix_key(system: "System", warmup_epochs: int) -> dict[str, Any]:
    """Everything that determines the warm-up trajectory, as a JSON doc.

    Must be computed on a built-but-unrun system: the workload and
    mechanism descriptions double as their initial state.
    """
    registry = system.registry
    return {
        "version": CHECKPOINT_VERSION,
        "fingerprint": source_fingerprint(),
        "warmup_epochs": warmup_epochs,
        "seed": system.engine._seed,
        "config": asdict(system.config),
        "classes": [
            {
                "qos_id": qos_class.qos_id,
                "name": qos_class.name,
                "weight": qos_class.weight,
                "stride": qos_class.stride,
                "l3_ways": qos_class.l3_ways,
            }
            for qos_class in registry.classes
        ],
        "cores": {
            str(core_id): registry.class_of_core(core_id)
            for core_id in sorted(system.cores)
        },
        "workloads": {
            str(core_id): describe_component(core.workload)
            for core_id, core in sorted(system.cores.items())
        },
        "mechanism": describe_component(system.mechanism),
        "sample_latencies": system.stats.sample_latencies,
        "sanitize": system.engine.sanitizer is not None,
        # a tracer records during warm-up, so traced and untraced warm-ups
        # are different prefixes even though the simulated state matches
        "traced": system.engine.tracer is not None,
    }


def warmup_prefix_hash(system: "System", warmup_epochs: int) -> str:
    """Content hash (16 hex chars) of :func:`warmup_prefix_key`."""
    payload = json.dumps(
        warmup_prefix_key(system, warmup_epochs),
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# snapshot / restore
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checkpoint:
    """One warm-up snapshot: metadata plus the pickled system graph.

    ``payload`` holds only the pickled :class:`System` graph; the
    metadata (version, prefix hash, request-id watermark, boundary
    cycle) lives in the dataclass fields, and on disk in a small
    separate pickle stream *ahead of* the payload.  Keeping them apart
    means a store lookup decodes a few dozen bytes of metadata, not the
    ~1 MB object graph — restoring is the only full decode, and every
    :func:`restore_system` call unpickles the payload afresh, so a
    single checkpoint forks any number of independent measurement runs.
    """

    prefix_hash: str
    payload: bytes
    version: int
    fingerprint: str
    warmup_epochs: int
    boundary_cycle: int
    request_id_watermark: int

    def meta(self) -> dict[str, Any]:
        """The on-disk metadata header, as a plain dict."""
        return {
            "version": self.version,
            "prefix_hash": self.prefix_hash,
            "fingerprint": self.fingerprint,
            "warmup_epochs": self.warmup_epochs,
            "boundary_cycle": self.boundary_cycle,
            "request_id_watermark": self.request_id_watermark,
        }


def snapshot_system(
    system: "System", warmup_epochs: int, prefix_hash: str | None = None
) -> Checkpoint:
    """Snapshot a system standing at its warm-up/measurement boundary.

    Pickling captures the complete object graph (pickle's memo preserves
    the shared references — the same Core object reachable from the
    system dict and a controller's fusion table stays one object on
    restore).  The request-id watermark is recorded so the restoring
    process can re-establish the global id order scheduler tie-breaks
    depend on.
    """
    if prefix_hash is None:
        raise ValueError(
            "snapshot_system needs the prefix hash computed on the "
            "built-but-unrun system (warmup_prefix_hash before run_epochs)"
        )
    watermark = request_id_watermark()
    payload = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
    return Checkpoint(
        prefix_hash=prefix_hash,
        payload=payload,
        version=CHECKPOINT_VERSION,
        fingerprint=source_fingerprint(),
        warmup_epochs=warmup_epochs,
        boundary_cycle=system.engine.now,
        request_id_watermark=watermark,
    )


def restore_system(checkpoint: Checkpoint) -> "System":
    """Resurrect an independent :class:`System` from a checkpoint.

    Three steps make fork-equals-cold hold:

    * unpickle the payload (a fresh object graph per call — restores
      never alias each other or the snapshotted original);
    * advance the process-global request-id counter past the snapshot's
      watermark, so ids minted by the measurement phase sort after every
      warm-up id exactly as they would have in a cold run (FR-FCFS and
      the PABST arbiter break ties by ``req_id``);
    * run the sanitizer's restore-validation pass over the resurrected
      state (clock/window consistency, live-event conservation, request
      deadline sanity) so a corrupt or version-skewed snapshot fails
      loudly here instead of producing a silently wrong figure.
    """
    from repro.sim.engine import SimulationError
    from repro.sim.sanitizer import SimSanitizer

    if checkpoint.version != CHECKPOINT_VERSION:
        raise SimulationError(
            f"checkpoint version {checkpoint.version!r} does not match "
            f"this build's {CHECKPOINT_VERSION}"
        )
    try:
        system = pickle.loads(checkpoint.payload)
    except Exception as exc:
        raise SimulationError(f"checkpoint payload does not unpickle: {exc}") from exc
    advance_request_ids(checkpoint.request_id_watermark)
    if system.engine.now != checkpoint.boundary_cycle:
        raise SimulationError(
            f"restored clock {system.engine.now} does not match the "
            f"checkpoint's boundary cycle {checkpoint.boundary_cycle}"
        )
    sanitizer = system.engine.sanitizer
    if sanitizer is None:
        # one-shot validation pass; not attached, so the dispatch loop
        # stays on its unsanitized fast path afterwards
        sanitizer = SimSanitizer()
    sanitizer.on_restore(system)
    return system


# ----------------------------------------------------------------------
# on-disk store
# ----------------------------------------------------------------------
class CheckpointStore:
    """Prefix-hash addressed store of warm-up checkpoints with LRU caps.

    Layout mirrors :class:`~repro.runner.cache.ResultCache`: one file
    per entry, atomic rename on save, corruption reads as a miss.  The
    source fingerprint lives *inside* the prefix hash, so stale
    checkpoints simply never match and are eventually evicted.
    """

    def __init__(
        self,
        directory: Path | str = DEFAULT_CHECKPOINT_DIR,
        max_entries: int | None = DEFAULT_MAX_CHECKPOINTS,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.directory = Path(directory)
        self.max_entries = max_entries

    def _path(self, prefix_hash: str) -> Path:
        return self.directory / f"{prefix_hash}.ckpt"

    def load(self, prefix_hash: str) -> Checkpoint | None:
        """The stored checkpoint, or None on miss/corruption/version skew.

        Only the small metadata header is decoded here (the system
        payload stays opaque bytes until :func:`restore_system`), so a
        validating lookup costs microseconds, not a full graph decode.
        """
        path = self._path(prefix_hash)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            stream = io.BytesIO(raw)
            meta = pickle.load(stream)
            payload = raw[stream.tell() :]
            version = meta["version"]
            fingerprint = meta["fingerprint"]
            warmup_epochs = meta["warmup_epochs"]
            boundary_cycle = meta["boundary_cycle"]
            watermark = meta["request_id_watermark"]
            stored_hash = meta["prefix_hash"]
        except Exception:
            return None
        if version != CHECKPOINT_VERSION or stored_hash != prefix_hash:
            return None
        if fingerprint != source_fingerprint():
            return None
        if not payload:
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError as exc:
            obs_warn(
                "checkpoint.utime_failed",
                "checkpoint store could not refresh recency of %s: %s",
                path,
                exc,
            )
        return Checkpoint(
            prefix_hash=prefix_hash,
            payload=payload,
            version=version,
            fingerprint=fingerprint,
            warmup_epochs=warmup_epochs,
            boundary_cycle=boundary_cycle,
            request_id_watermark=watermark,
        )

    def save(self, checkpoint: Checkpoint) -> Path:
        """Persist one checkpoint; atomic via rename; evicts LRU extras.

        File layout: a pickled metadata dict immediately followed by
        the pickled system graph (two concatenated pickle streams).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(checkpoint.prefix_hash)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        with tmp.open("wb") as handle:
            handle.write(
                pickle.dumps(checkpoint.meta(), protocol=pickle.HIGHEST_PROTOCOL)
            )
            handle.write(checkpoint.payload)
        tmp.replace(path)
        self._evict()
        return path

    def _evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``."""
        if self.max_entries is None:
            return 0
        entries = self._entries()
        removed = 0
        if len(entries) <= self.max_entries:
            return 0
        by_age = sorted(entries, key=lambda p: (p.stat().st_mtime, p.name))
        for path in by_age[: len(entries) - self.max_entries]:
            try:
                path.unlink()
                removed += 1
            except OSError as exc:
                obs_warn(
                    "checkpoint.evict_unlink_failed",
                    "checkpoint store could not evict %s: %s",
                    path,
                    exc,
                )
        return removed

    def _entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.ckpt"))

    def clear(self) -> int:
        """Delete every checkpoint; returns the number removed."""
        removed = 0
        for path in self._entries():
            path.unlink()
            removed += 1
        return removed

    def stats(self) -> dict[str, Any]:
        """Entry count and on-disk footprint for ``repro cache --stats``."""
        entries = self._entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "max_entries": self.max_entries,
        }

    def __len__(self) -> int:
        return len(self._entries())
