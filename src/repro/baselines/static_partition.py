"""Static bandwidth partition baseline (Fig. 11).

The paper approximates a hard 1/N bandwidth reservation by running the
workload in isolation with DRAM frequency scaled down N times.  This module
expresses that configuration as a :class:`~repro.sim.mechanism.QoSMechanism`,
so the IaaS experiment and the arena run the baseline through the same
interface as every other mechanism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.config import SystemConfig
from repro.sim.mechanism import QoSMechanism

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.qos.classes import QoSRegistry

__all__ = ["StaticPartitionMechanism"]


class StaticPartitionMechanism(QoSMechanism):
    """The Fig. 11 baseline as a mechanism object.

    Exercises the :meth:`~repro.sim.mechanism.QoSMechanism.prepare_config`
    hook: the "mechanism" is a machine-level config rewrite (DRAM slowed
    ``share_divisor`` times, emulating a hard 1/N reservation) with no
    runtime behaviour of its own.  All DRAM timings stretch by the
    divisor, which scales peak bandwidth down while leaving core-side
    behaviour untouched.  ``share_divisor=None`` defaults to the number
    of QoS classes, the paper's equal-split setting.
    """

    name = "static-partition"

    def __init__(self, share_divisor: int | None = None) -> None:
        if share_divisor is not None and share_divisor < 1:
            raise ValueError("share_divisor must be >= 1")
        self.share_divisor = share_divisor

    def prepare_config(
        self, config: SystemConfig, registry: "QoSRegistry"
    ) -> SystemConfig:
        divisor = self.share_divisor
        if divisor is None:
            divisor = max(1, len(registry.classes))
        return config.with_dram(config.dram.frequency_scaled(divisor))
