"""HydraNet-FT reproduction: network support for dependable services.

A faithful Python reimplementation of "HYDRANET-FT: Network Support for
Dependable Services" (ICDCS 2000) over a deterministic discrete-event
network simulator.  Start with :mod:`repro.core` (the fault-tolerant
service API), :mod:`repro.experiments` (the evaluation harness), or the
runnable scripts in ``examples/``.
"""

__version__ = "1.0.0"
