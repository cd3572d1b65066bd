"""Fig. 7 (Section IV-C): source vs target vs PABST on both mixes.

Repeats the Fig. 1 experiment with PABST added: six bars — {source-only,
target-only, PABST} x {stream mix, chaser mix}, all with a 3:1 allocation.
The paper's claim: PABST tracks whichever single-point regulator does
better on each mix, with a small residual error on the chaser mix that
only sacrificing controller efficiency could remove.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import allocation_error, bandwidth_shares
from repro.analysis.report import format_table
from repro.experiments.common import build_system, run_system
from repro.experiments.mixes import HI_WEIGHT, LO_WEIGHT, chaser_mix, stream_mix
from repro.mechanisms import make_mechanism

__all__ = ["Fig07Result", "MixOutcome", "run", "sweep_cells"]

TARGET_HI_SHARE = HI_WEIGHT / (HI_WEIGHT + LO_WEIGHT)

_MIXES = (("stream", stream_mix), ("chaser", chaser_mix))


@dataclass(frozen=True)
class MixOutcome:
    """One bar of the figure."""

    mix: str
    mechanism: str
    hi_share: float
    error: float
    utilization: float


@dataclass
class Fig07Result:
    outcomes: list[MixOutcome]

    def outcome(self, mix: str, mechanism: str) -> MixOutcome:
        for entry in self.outcomes:
            if entry.mix == mix and entry.mechanism == mechanism:
                return entry
        raise KeyError(f"no outcome for {mix!r}/{mechanism!r}")

    def report(self) -> str:
        rows = [
            (o.mix, o.mechanism, o.hi_share, TARGET_HI_SHARE, o.error, o.utilization)
            for o in self.outcomes
        ]
        return format_table(
            ["mix", "mechanism", "hi share", "target", "alloc error", "utilization"],
            rows,
            title="Fig. 7 - source and target regulation, 3:1 allocation",
        )


def sweep_cells(quick: bool = False) -> list[dict]:
    """Independent grid cells for the parallel runner: one (mix, mechanism)
    bar per cell, each a kwargs dict for :func:`run`."""
    return [
        {"mixes": (mix,), "mechanisms": (mechanism,)}
        for mix, _ in _MIXES
        for mechanism in ("source-only", "target-only", "pabst")
    ]


def run(
    mechanisms: tuple[str, ...] = ("source-only", "target-only", "pabst"),
    quick: bool = False,
    seed: int = 0,
    mixes: tuple[str, ...] = ("stream", "chaser"),
) -> Fig07Result:
    """Run every mechanism on the selected mixes and collect the bars."""
    epochs, warmup = (60, 25) if quick else (140, 50)
    outcomes: list[MixOutcome] = []
    weights = {0: float(HI_WEIGHT), 1: float(LO_WEIGHT)}
    for mix_name, specs_factory in _MIXES:
        if mix_name not in mixes:
            continue
        for mechanism_name in mechanisms:
            system = build_system(
                specs_factory(), mechanism=make_mechanism(mechanism_name), seed=seed
            )
            result = run_system(system, epochs=epochs, warmup_epochs=warmup)
            observed = {
                qos_id: result.steady_bytes.get(qos_id, 0) for qos_id in weights
            }
            shares = bandwidth_shares(observed)
            outcomes.append(
                MixOutcome(
                    mix=mix_name,
                    mechanism=mechanism_name,
                    hi_share=shares.get(0, 0.0),
                    error=allocation_error(observed, weights),
                    utilization=result.total_utilization(),
                )
            )
    return Fig07Result(outcomes=outcomes)
