"""Experiment harness: one module per paper figure/table, ablation or demo.

The registry is :data:`repro.experiments.runner.EXPERIMENTS` (each
module's ``EXPERIMENT`` record, in report order); run it with
``python -m repro experiments``.  This package itself exports only the
testbed builders, so importing it loads no experiment module.
"""

from .testbeds import (
    CLIENT_486,
    FIGURE4_BUILDERS,
    FtSystem,
    REDIRECTOR_486,
    SERVER_P120,
    SERVICE_IP,
    TTCP_PORT,
    TtcpRun,
    build_clean,
    build_ft_system,
    build_no_redirection,
    build_primary_backup,
    build_primary_only,
)

__all__ = [
    "CLIENT_486",
    "FIGURE4_BUILDERS",
    "FtSystem",
    "REDIRECTOR_486",
    "SERVER_P120",
    "SERVICE_IP",
    "TTCP_PORT",
    "TtcpRun",
    "build_clean",
    "build_ft_system",
    "build_no_redirection",
    "build_primary_backup",
    "build_primary_only",
]
