"""QoS framework: classes, shares/strides, and the bandwidth monitor."""

from repro.qos.classes import QoSClass, QoSRegistry
from repro.qos.monitor import BandwidthMonitor
from repro.qos.policy import BandwidthTargetPolicy
from repro.qos.shares import (
    DEFAULT_STRIDE_SCALE,
    proportional_share,
    proportional_shares,
    stride_for_weight,
    strides_for_weights,
)

__all__ = [
    "BandwidthMonitor", "BandwidthTargetPolicy", "DEFAULT_STRIDE_SCALE", "QoSClass",
    "QoSRegistry", "proportional_share", "proportional_shares", "stride_for_weight",
    "strides_for_weights",
]
