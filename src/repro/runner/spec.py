"""Run specifications: content-hashed descriptions of one experiment run.

A :class:`RunSpec` pins everything that determines a run's output —
figure, cell kwargs, seed, quick mode, and any :class:`SystemConfig`
overrides.  Because the simulator is bit-deterministic, two specs with
equal content hashes produce byte-identical reports, which is what makes
the on-disk result cache (:mod:`repro.runner.cache`) sound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

__all__ = ["RunSpec", "specs_for_figure"]


def _canonical(value: Any) -> Any:
    """Normalize values so hashing is stable across equivalent spellings.

    Tuples and lists hash identically (JSON has only arrays); mappings
    are sorted by key.  Anything else must already be JSON-serializable.
    """
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    return value


@dataclass(frozen=True)
class RunSpec:
    """One cell of one figure's grid, fully pinned.

    ``cell`` holds extra kwargs for the figure's ``run()`` beyond
    ``quick``/``seed`` (e.g. ``{"workloads": ("mcf",)}``); ``overrides``
    holds :class:`SystemConfig` field replacements applied through
    :func:`repro.experiments.common.config_overrides`.
    """

    figure: str
    cell: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    quick: bool = True
    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Execution backend, already resolved ("pure" or "c" — never
    #: "auto"; the CLI resolves before building specs).  Backends are
    #: byte-identical by contract, but the identity still enters the
    #: content hash: a determinism bug in the compiled core must surface
    #: as a report diff, never be papered over by a cache hit recorded
    #: under the other backend.
    backend: str = "pure"

    def canonical_json(self) -> str:
        """Stable JSON encoding used for hashing and cache metadata."""
        payload = {
            "backend": self.backend,
            "figure": self.figure,
            "cell": _canonical(self.cell),
            "seed": self.seed,
            "quick": self.quick,
            "overrides": _canonical(self.overrides),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Content hash identifying this spec (first 16 hex chars)."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    def label(self) -> str:
        """Short human-readable tag for progress output."""
        if not self.cell:
            return self.figure
        parts = []
        for key in sorted(self.cell):
            value = self.cell[key]
            if isinstance(value, (list, tuple)) and len(value) == 1:
                value = value[0]
            parts.append(str(value))
        return f"{self.figure}[{','.join(parts)}]"

    def to_payload(self) -> dict:
        """Plain-dict form that crosses the process-pool boundary."""
        payload = asdict(self)
        payload["cell"] = dict(self.cell)
        payload["overrides"] = dict(self.overrides)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_payload`."""
        return cls(
            figure=payload["figure"],
            cell=dict(payload["cell"]),
            seed=payload["seed"],
            quick=payload["quick"],
            overrides=dict(payload["overrides"]),
            backend=payload["backend"],
        )


def specs_for_figure(
    figure: str,
    quick: bool = True,
    seed: int = 0,
    overrides: Mapping[str, Any] | None = None,
    backend: str = "pure",
) -> list[RunSpec]:
    """Expand one figure's ``sweep_cells`` grid into :class:`RunSpec` s."""
    from repro.runner.worker import figure_module

    module = figure_module(figure)
    cells = module.sweep_cells(quick=quick)
    return [
        RunSpec(
            figure=figure,
            cell=cell,
            seed=seed,
            quick=quick,
            overrides=dict(overrides or {}),
            backend=backend,
        )
        for cell in cells
    ]
