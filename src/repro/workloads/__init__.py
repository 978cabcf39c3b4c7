"""Workload generators and parameter sweeps."""

from .generators import (
    FIGURE4_PACKET_SIZES,
    HttpWorkload,
    RequestRecord,
    nbuf_for_size,
    ttcp_sweep_sizes,
)

__all__ = [
    "FIGURE4_PACKET_SIZES",
    "HttpWorkload",
    "RequestRecord",
    "nbuf_for_size",
    "ttcp_sweep_sizes",
]
