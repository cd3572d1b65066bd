"""Baseline mechanisms the paper compares PABST against."""

from repro.baselines.none import NoQosMechanism
from repro.baselines.source_only import SourceOnlyMechanism
from repro.baselines.static_partition import StaticPartitionMechanism
from repro.baselines.target_only import TargetOnlyMechanism

__all__ = [
    "NoQosMechanism", "SourceOnlyMechanism", "StaticPartitionMechanism",
    "TargetOnlyMechanism",
]
