"""PABST mechanism parameters.

Defaults follow Section III where the paper gives numbers: the governor's
delta-M inertia of 3 epochs, 16-request pacer bursts, and the arbiter slack
cap.  Two quantities the paper leaves relative to its (unstated) stride
magnitudes — the pacer credit bound and the arbiter slack — are expressed
here in request/stride units; DESIGN.md §3 records the reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PabstConfig"]


@dataclass(frozen=True, slots=True)
class PabstConfig:
    """Knobs for the governor, pacer, and priority arbiter.

    Attributes
    ----------
    inertia:
        Consecutive same-direction epochs before delta-M starts growing.
        The paper quotes 3 for 10 us epochs; with this reproduction's
        shorter epochs (higher SAT lag relative to the epoch) 6 damps the
        M limit-cycle while still re-allocating bandwidth within a few
        epochs (the stability/responsiveness trade-off of Section III-B1).
    burst_requests:
        Pacer credit bound, in requests ("bursts of up to 16 requests").
    arbiter_slack_strides:
        Arbiter deadline cap, in units of the stride scale: an idle class
        can bank at most this many weight-1-request-equivalents of priority.
    per_controller_governors:
        Section III-C1 alternative: instead of one global wired-OR SAT
        driving one governor per source, each source runs one governor per
        memory controller, fed that controller's own SAT signal.  With a
        skewed address interleave this stops a single hot controller from
        throttling traffic bound for idle ones.
    """

    inertia: int = 6
    burst_requests: int = 16
    arbiter_slack_strides: int = 8
    per_controller_governors: bool = False

    def __post_init__(self) -> None:
        if self.inertia < 1:
            raise ValueError("inertia must be >= 1")
        if self.burst_requests < 1:
            raise ValueError("burst_requests must be >= 1")
        if self.arbiter_slack_strides < 1:
            raise ValueError("arbiter_slack_strides must be >= 1")
