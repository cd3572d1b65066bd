"""Epoch metric streams: pluggable sinks fed by ``Stats.close_epoch``.

Every epoch boundary, :meth:`repro.sim.stats.Stats.close_epoch` builds
one :func:`epoch_record` — per-class bytes and bandwidth, saturation,
the governor multiplier — and hands it to each attached sink.  The fig
modules and external consumers read the stream instead of scraping the
``Stats.epochs`` list after the fact.

Two sinks ship here:

* :class:`MemorySink` — keeps the records in a list; the test/inspect
  sink.
* :class:`JsonlSink` — appends one JSON object per line to a file.
  The file handle opens lazily on first publish, so a sink that never
  sees an epoch never creates its file.

Records use ``None`` (JSON ``null``) where the simulator uses the
``-1`` sentinel for "no governor multiplier", so downstream tooling
never has to know about in-band sentinels.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.stats import EpochSample

__all__ = ["JsonlSink", "MemorySink", "epoch_record"]


def epoch_record(sample: "EpochSample") -> dict[str, Any]:
    """One JSON-able record for an epoch boundary.

    Bandwidth is bytes per cycle; a zero-length epoch (the run ended
    exactly on an epoch boundary) reports zero bandwidth rather than
    dividing by zero.  ``multiplier`` maps the simulator's ``-1``
    "no governor" sentinel to ``None``.
    """
    cycles = sample.cycles
    if cycles > 0:
        bandwidth = {
            qos_id: bytes_moved / cycles
            for qos_id, bytes_moved in sample.bytes_by_class.items()
        }
    else:
        bandwidth = {qos_id: 0.0 for qos_id in sample.bytes_by_class}
    return {
        "epoch": sample.epoch,
        "start_cycle": sample.start_cycle,
        "end_cycle": sample.end_cycle,
        "cycles": cycles,
        "saturated": sample.saturated,
        "multiplier": None if sample.multiplier < 0 else sample.multiplier,
        "bytes_by_class": dict(sample.bytes_by_class),
        "bandwidth_by_class": bandwidth,
    }


class MemorySink:
    """In-memory sink; records accumulate on :attr:`samples`."""

    def __init__(self) -> None:
        self.samples: list[dict[str, Any]] = []

    def publish(self, record: dict[str, Any]) -> None:
        self.samples.append(record)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.samples)


class JsonlSink:
    """Appends one JSON line per epoch record to ``path``."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.published = 0
        self._handle: IO[str] | None = None

    def publish(self, record: dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        json.dump(record, self._handle, separators=(",", ":"), sort_keys=True)
        self._handle.write("\n")
        self._handle.flush()
        self.published += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
