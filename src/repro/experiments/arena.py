"""The QoS mechanism arena: every mechanism, head-to-head, one report.

Runs the full :mod:`repro.mechanisms` zoo over a scenario matrix and
emits a deterministic comparative report per scenario: proportionality
(hi-class share vs its 3:1 entitlement, worst relative allocation
error), total utilization (work conservation), tail latency (exact
p50/p95/p99 percentiles of per-request read latencies), the uniform
``mechanism.*`` release counters, and — for mechanisms that promise a
worst-case bound (DPQ's access latency, per-bank epoch budgets) — the
measured bound check from :meth:`QoSMechanism.bound_report`.

Structured like the fig* modules so the parallel runner drives it:
``sweep_cells()`` yields one (scenario, mechanism) cell per spec, and
:class:`ArenaResult` carries a ``metrics()`` document (schema
``repro.arena/v1``) that the worker ships through the result cache, so
``repro arena`` can merge cells from live and cached runs into one
byte-identical report.  No wall-clock values appear anywhere in the
document or report.

Latency percentiles are computed over every sampled read in the run,
warm-up included — tail behaviour during the adaptation transient is
part of what distinguishes the mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.metrics import (
    allocation_error,
    bandwidth_shares,
    percentile,
    share_error_per_class,
)
from repro.analysis.report import format_table
from repro.experiments.common import ClassSpec, build_system, run_system
from repro.experiments.mixes import HI_WEIGHT, LO_WEIGHT, chaser_mix, stream_mix
from repro.mechanisms import ALL_MECHANISMS, make_mechanism
from repro.workloads.stream import StreamWorkload

__all__ = [
    "ArenaResult",
    "SCENARIOS",
    "comparative_report",
    "merge_documents",
    "run",
    "sweep_cells",
    "validate_report",
]

SCHEMA = "repro.arena/v1"

TARGET_HI_SHARE = HI_WEIGHT / (HI_WEIGHT + LO_WEIGHT)

_LATENCY_QUANTILES = (50.0, 95.0, 99.0)


def readmix(cores_per_class: int = 4) -> list[ClassSpec]:
    """Read-streaming class (3) against a write streamer (1).

    The third arena regime: the hi class never dirties lines, so
    writeback charging and the write-drain path only matter for the
    aggressor — separates mechanisms that regulate reads and writes
    jointly from those that only see one side.
    """
    return [
        ClassSpec(
            qos_id=0,
            name="read-stream",
            weight=HI_WEIGHT,
            cores=cores_per_class,
            workload_factory=lambda: StreamWorkload(
                write_fraction=0.0, name="read-stream"
            ),
            l3_ways=8,
        ),
        ClassSpec(
            qos_id=1,
            name="stream-lo",
            weight=LO_WEIGHT,
            cores=cores_per_class,
            workload_factory=lambda: StreamWorkload(
                write_fraction=1.0, name="write-stream"
            ),
            l3_ways=8,
        ),
    ]


_SCENARIO_FACTORIES = {
    "stream": stream_mix,
    "chaser": chaser_mix,
    "readmix": readmix,
}

#: Canonical scenario order for the default matrix and merged reports.
SCENARIOS: tuple[str, ...] = tuple(_SCENARIO_FACTORIES)


def sweep_cells(quick: bool = False) -> list[dict]:
    """One (scenario, mechanism) head-to-head entry per runner cell."""
    return [
        {"scenarios": (scenario,), "mechanisms": (mechanism,)}
        for scenario in SCENARIOS
        for mechanism in ALL_MECHANISMS
    ]


def _latency_stats(samples: Sequence[int]) -> dict:
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0}
    stats = {
        "count": len(samples),
        "mean": round(sum(samples) / len(samples), 6),
        "max": max(samples),
    }
    for q in _LATENCY_QUANTILES:
        stats[f"p{q:.0f}"] = round(percentile(samples, q), 6)
    return stats


@dataclass
class ArenaResult:
    """All finished cells plus the matrix they were asked to cover."""

    cells: list[dict]
    quick: bool
    seed: int
    scenarios: tuple[str, ...]
    mechanisms: tuple[str, ...] = field(default_factory=tuple)

    def metrics(self) -> dict:
        """The canonical ``repro.arena/v1`` document for this run.

        Everything is plain JSON types with string keys and floats
        rounded to 6 places, so the document is byte-identical across a
        JSON round-trip — the property the result cache relies on.
        """
        return {
            "schema": SCHEMA,
            "quick": self.quick,
            "seed": self.seed,
            "scenarios": list(self.scenarios),
            "mechanisms": list(self.mechanisms),
            "cells": self.cells,
        }

    def report(self) -> str:
        return comparative_report(self.metrics())


def run(
    quick: bool = False,
    seed: int = 0,
    mechanisms: tuple[str, ...] = ALL_MECHANISMS,
    scenarios: tuple[str, ...] = SCENARIOS,
) -> ArenaResult:
    """Run every selected mechanism on every selected scenario."""
    epochs, warmup = (40, 15) if quick else (120, 45)
    weights = {0: float(HI_WEIGHT), 1: float(LO_WEIGHT)}
    cells: list[dict] = []
    for scenario in scenarios:
        try:
            factory = _SCENARIO_FACTORIES[scenario]
        except KeyError:
            known = ", ".join(SCENARIOS)
            raise KeyError(
                f"unknown scenario {scenario!r}; known: {known}"
            ) from None
        for mechanism_name in mechanisms:
            mechanism = make_mechanism(mechanism_name)
            system = build_system(
                factory(),
                mechanism=mechanism,
                seed=seed,
                sample_latencies=True,
            )
            result = run_system(system, epochs=epochs, warmup_epochs=warmup)
            observed = {
                qos_id: result.steady_bytes.get(qos_id, 0)
                for qos_id in weights
            }
            shares = bandwidth_shares(observed)
            per_class_error = share_error_per_class(observed, weights)
            latencies = {
                str(qos_id): _latency_stats(
                    system.stats.read_latencies.get(qos_id, [])
                )
                for qos_id in sorted(weights)
            }
            cells.append(
                {
                    "scenario": scenario,
                    "mechanism": mechanism_name,
                    "shares": {
                        str(q): round(shares.get(q, 0.0), 6)
                        for q in sorted(weights)
                    },
                    "target_hi_share": round(TARGET_HI_SHARE, 6),
                    "allocation_error": round(
                        allocation_error(observed, weights), 6
                    ),
                    "share_error": {
                        str(q): round(per_class_error[q], 6)
                        for q in sorted(per_class_error)
                    },
                    "utilization": round(result.total_utilization(), 6),
                    "read_latency": latencies,
                    "counters": {
                        "epochs": mechanism.obs_epochs,
                        "releases_granted": mechanism.obs_releases_granted,
                        "releases_denied": mechanism.obs_releases_denied,
                        "writeback_charges": mechanism.obs_writeback_charges,
                    },
                    "multiplier": round(float(mechanism.multiplier()), 6),
                    "bound": mechanism.bound_report(),
                }
            )
    return ArenaResult(
        cells=cells,
        quick=quick,
        seed=seed,
        scenarios=tuple(scenarios),
        mechanisms=tuple(mechanisms),
    )


def merge_documents(documents: list[dict]) -> dict:
    """Merge per-cell ``repro.arena/v1`` documents into one.

    The parallel runner executes one (scenario, mechanism) cell per
    spec; this reassembles their documents in the canonical order
    (scenario in ``SCENARIOS`` order, then mechanism in registry order)
    so the merged document is independent of completion order.
    """
    if not documents:
        raise ValueError("nothing to merge")
    for document in documents:
        if document.get("schema") != SCHEMA:
            raise ValueError(
                f"schema mismatch: {document.get('schema')!r} != {SCHEMA!r}"
            )
        for key in ("quick", "seed"):
            if document[key] != documents[0][key]:
                raise ValueError(f"cannot merge documents with mixed {key!r}")
    cells = [cell for document in documents for cell in document["cells"]]
    scenario_order = {name: i for i, name in enumerate(SCENARIOS)}
    mechanism_order = {name: i for i, name in enumerate(ALL_MECHANISMS)}
    cells.sort(
        key=lambda cell: (
            scenario_order.get(cell["scenario"], len(scenario_order)),
            cell["scenario"],
            mechanism_order.get(cell["mechanism"], len(mechanism_order)),
            cell["mechanism"],
        )
    )
    seen_scenarios: list[str] = []
    seen_mechanisms: list[str] = []
    for cell in cells:
        if cell["scenario"] not in seen_scenarios:
            seen_scenarios.append(cell["scenario"])
        if cell["mechanism"] not in seen_mechanisms:
            seen_mechanisms.append(cell["mechanism"])
    return {
        "schema": SCHEMA,
        "quick": documents[0]["quick"],
        "seed": documents[0]["seed"],
        "scenarios": seen_scenarios,
        "mechanisms": seen_mechanisms,
        "cells": cells,
    }


def comparative_report(document: dict) -> str:
    """Render a merged arena document as per-scenario league tables."""
    sections: list[str] = []
    for scenario in document["scenarios"]:
        rows = []
        for cell in document["cells"]:
            if cell["scenario"] != scenario:
                continue
            hi_latency = cell["read_latency"].get("0", {})
            bound = cell["bound"]
            if bound is None:
                verdict = "-"
            else:
                verdict = (
                    f"ok ({bound['max_observed']}/{bound['bound']})"
                    if bound["ok"]
                    else f"VIOLATED x{bound['violations']}"
                )
            rows.append(
                (
                    cell["mechanism"],
                    cell["shares"].get("0", 0.0),
                    cell["target_hi_share"],
                    cell["allocation_error"],
                    cell["utilization"],
                    hi_latency.get("p95", 0.0),
                    hi_latency.get("p99", 0.0),
                    cell["counters"]["releases_denied"],
                    verdict,
                )
            )
        sections.append(
            format_table(
                [
                    "mechanism",
                    "hi share",
                    "target",
                    "alloc err",
                    "util",
                    "hi p95",
                    "hi p99",
                    "denied",
                    "wc bound",
                ],
                rows,
                title=f"Arena - scenario '{scenario}'",
            )
        )
    return "\n\n".join(sections)


_CELL_REQUIRED_KEYS = {
    "scenario": str,
    "mechanism": str,
    "shares": dict,
    "target_hi_share": float,
    "allocation_error": float,
    "share_error": dict,
    "utilization": float,
    "read_latency": dict,
    "counters": dict,
    "multiplier": float,
}

_COUNTER_KEYS = (
    "epochs",
    "releases_granted",
    "releases_denied",
    "writeback_charges",
)

_BOUND_KEYS = ("kind", "bound", "max_observed", "violations", "ok")


def validate_report(document: dict) -> int:
    """Check a document against the ``repro.arena/v1`` schema.

    Raises :class:`ValueError` on the first problem; returns the number
    of cells on success.  Hand-rolled (no jsonschema dependency) but
    strict about the fields the report and CI consume.
    """
    if not isinstance(document, dict):
        raise ValueError("document must be an object")
    if document.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}, got {document.get('schema')!r}")
    for key, kind in (
        ("quick", bool),
        ("seed", int),
        ("scenarios", list),
        ("mechanisms", list),
        ("cells", list),
    ):
        if not isinstance(document.get(key), kind):
            raise ValueError(f"document[{key!r}] must be {kind.__name__}")
    for i, cell in enumerate(document["cells"]):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            raise ValueError(f"{where} must be an object")
        for key, kind in _CELL_REQUIRED_KEYS.items():
            if key not in cell:
                raise ValueError(f"{where} missing {key!r}")
            value = cell[key]
            if kind is float:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"{where}[{key!r}] must be a number")
            elif not isinstance(value, kind):
                raise ValueError(f"{where}[{key!r}] must be {kind.__name__}")
        for key in _COUNTER_KEYS:
            count = cell["counters"].get(key)
            if not isinstance(count, int) or count < 0:
                raise ValueError(
                    f"{where} counter {key!r} must be a non-negative int"
                )
        for qos_id, stats in cell["read_latency"].items():
            for key in ("count", "mean", "p50", "p95", "p99", "max"):
                if key not in stats:
                    raise ValueError(
                        f"{where} read_latency[{qos_id!r}] missing {key!r}"
                    )
        if "bound" not in cell:
            raise ValueError(f"{where} missing 'bound'")
        bound = cell["bound"]
        if bound is not None:
            for key in _BOUND_KEYS:
                if key not in bound:
                    raise ValueError(f"{where} bound missing {key!r}")
            if not isinstance(bound["ok"], bool):
                raise ValueError(f"{where} bound['ok'] must be a bool")
    return len(document["cells"])
