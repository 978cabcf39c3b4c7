"""Measurement utilities for the experiment harness.

Import from the defining module (``repro.metrics.stats``, ``.tables``,
``.traceview``, ``.recovery``).
"""
