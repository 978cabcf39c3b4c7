"""Virtual hosts (paper §3).

A server program on a host server runs inside a *virtual host*
identified by the IP address of its origin host; sockets bound by the
process then belong to that address, and the host server accepts
packets destined to it.  This module is the bookkeeping; the kernel
side is just ``kernel.virtual_addresses``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.addressing import IPAddress, as_address

if TYPE_CHECKING:
    from .host_server import HostServer


class VirtualHost:
    """The environment a replica server process runs in."""

    def __init__(self, host_server: "HostServer", ip: IPAddress):
        self.host_server = host_server
        self.ip = ip
        #: TCP/UDP ports bound under this virtual host.
        self.bound_ports: set[tuple[str, int]] = set()

    def record_bind(self, protocol: str, port: int) -> None:
        self.bound_ports.add((protocol, port))

    def __repr__(self) -> str:
        return f"<VirtualHost {self.ip} on {self.host_server.name}>"


class VirtualHostTable:
    """All virtual hosts installed on one host server."""

    def __init__(self, host_server: "HostServer"):
        self.host_server = host_server
        self._table: dict[IPAddress, VirtualHost] = {}

    def create(self, ip) -> VirtualHost:
        """The ``v_host()`` system call: associate the (conceptual)
        current process with ``ip``."""
        address = as_address(ip)
        if address in self._table:
            return self._table[address]
        vhost = VirtualHost(self.host_server, address)
        self._table[address] = vhost
        self.host_server.kernel.virtual_addresses.add(address)
        return vhost

    def __len__(self) -> int:
        return len(self._table)
