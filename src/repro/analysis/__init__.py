"""Analysis: metrics, bandwidth timelines, and text reports.

Re-exports resolve on first access (:mod:`repro._lazy`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.metrics import (
        allocation_error,
        bandwidth_shares,
        percentile,
        share_error_per_class,
        weighted_slowdown,
    )
    from repro.analysis.report import format_series, format_table, sparkline
    from repro.analysis.timeline import BandwidthTimeline, WindowSummary

__all__ = [
    "BandwidthTimeline", "WindowSummary", "allocation_error",
    "bandwidth_shares", "format_series", "format_table", "percentile",
    "share_error_per_class", "sparkline", "weighted_slowdown",
]

__getattr__ = lazy_exports(__name__, {
    "repro.analysis.metrics": [
        "allocation_error", "bandwidth_shares", "percentile",
        "share_error_per_class", "weighted_slowdown",
    ],
    "repro.analysis.report": ["format_series", "format_table", "sparkline"],
    "repro.analysis.timeline": ["BandwidthTimeline", "WindowSummary"],
})
