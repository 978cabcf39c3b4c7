"""Routers: hosts with IP forwarding enabled.

A HydraNet redirector sets its kernel's ``intercept`` to its data path
(:mod:`repro.hydranet.redirector`); plain routers just forward.
"""

from __future__ import annotations

from .host import Host, HostProfile, MODERN
from .simulator import Simulator


class Router(Host):
    """An IP router."""

    def __init__(self, sim: Simulator, name: str, profile: HostProfile = MODERN):
        super().__init__(sim, name, profile)
        self.kernel.ip_forwarding = True
