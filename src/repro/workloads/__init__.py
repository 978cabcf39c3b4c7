"""Workload generators and parameter sweeps."""

from .generators import (
    FIGURE4_PACKET_SIZES,
    HttpWorkload,
    RequestRecord,
)

__all__ = [
    "FIGURE4_PACKET_SIZES",
    "HttpWorkload",
    "RequestRecord",
]
