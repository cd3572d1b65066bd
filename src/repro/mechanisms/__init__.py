"""The QoS mechanism zoo: every mechanism the arena can run, by name.

PABST's claim — that source+target proportional allocation beats single-
point regulation — is only as strong as the rivals it is compared
against.  This package collects every :class:`~repro.sim.mechanism
.QoSMechanism` implementation behind one registry:

* the baselines the paper itself evaluates (``none``, ``source-only``,
  ``target-only``, ``static-partition``) promoted to first-class
  mechanism objects;
* ``pabst`` — the full mechanism;
* rivals reconstructed from the related work (see PAPERS.md):
  ``dpq`` (bounded-latency rotating arbiter), ``perbank`` (per-bank
  windowed bandwidth regulation), and ``lms-ar`` (prediction-driven
  adaptive regulation).

``repro arena`` runs the whole registry head-to-head; experiments build
mechanisms by name with :func:`make_mechanism`.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.none import NoQosMechanism
from repro.baselines.source_only import SourceOnlyMechanism
from repro.baselines.static_partition import StaticPartitionMechanism
from repro.baselines.target_only import TargetOnlyMechanism
from repro.core.pabst import PabstMechanism
from repro.mechanisms.dpq import DpqMechanism, DpqPolicy
from repro.mechanisms.lmsar import LmsArMechanism, LmsPredictor
from repro.mechanisms.perbank import PerBankRegulatorMechanism
from repro.sim.mechanism import QoSMechanism

__all__ = [
    "ALL_MECHANISMS",
    "DpqMechanism",
    "DpqPolicy",
    "LmsArMechanism",
    "LmsPredictor",
    "MECHANISMS",
    "PerBankRegulatorMechanism",
    "StaticPartitionMechanism",
    "make_mechanism",
    "register_mechanism",
]

#: Name -> zero-argument factory.  Insertion order is the canonical
#: arena column order: baselines first, PABST, then the rivals.
MECHANISMS: dict[str, Callable[[], QoSMechanism]] = {
    "none": NoQosMechanism,
    "static-partition": StaticPartitionMechanism,
    "source-only": SourceOnlyMechanism,
    "target-only": TargetOnlyMechanism,
    "pabst": PabstMechanism,
    "dpq": DpqMechanism,
    "perbank": PerBankRegulatorMechanism,
    "lms-ar": LmsArMechanism,
}

ALL_MECHANISMS: tuple[str, ...] = tuple(MECHANISMS)


def make_mechanism(name: str) -> QoSMechanism:
    """Instantiate a registered mechanism by name."""
    try:
        factory = MECHANISMS[name]
    except KeyError:
        known = ", ".join(sorted(MECHANISMS))
        raise KeyError(f"unknown mechanism {name!r}; known: {known}") from None
    return factory()


def register_mechanism(
    name: str, factory: Callable[[], QoSMechanism]
) -> None:
    """Add a mechanism to the registry (e.g. from an out-of-tree study).

    Re-registering an existing name is an error: the registry's order
    and contents define the arena's default matrix, and silently
    shadowing a built-in would change published comparisons.
    """
    if name in MECHANISMS:
        raise ValueError(f"mechanism {name!r} is already registered")
    MECHANISMS[name] = factory
