"""Measurement utilities for the experiment harness."""

from .fencing import FencingMetrics, primary_overlap
from .recovery import DegreeTimeline, RecoveryIncident, summarize_incidents
from .stats import Summary, ThroughputMeter, percentile
from .tables import Table, format_comparison
from .traceview import FlowKey, capture_at, flows, summarize, tcp_records, time_sequence

__all__ = [
    "FencingMetrics",
    "primary_overlap",
    "DegreeTimeline",
    "RecoveryIncident",
    "summarize_incidents",
    "Summary",
    "ThroughputMeter",
    "percentile",
    "Table",
    "format_comparison",
    "FlowKey",
    "capture_at",
    "flows",
    "summarize",
    "tcp_records",
    "time_sequence",
]
