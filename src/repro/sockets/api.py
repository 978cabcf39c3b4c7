"""BSD-style per-host networking facade.

A :class:`Node` bundles the UDP and TCP stacks of a host behind one
object, so applications are written against a single, socket-flavoured
API (``connect``, ``listen``, ``udp_socket``) instead of wiring stacks
by hand.  HydraNet host servers extend this with ``v_host`` and
replicated ports, whose ``setportopt`` options are arguments of
``FtStack.listen_replicated`` (see :mod:`repro.hydranet` and
:mod:`repro.core`).
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.addressing import IPAddress
from repro.netsim.host import Host
from repro.tcp.options import TcpOptions
from repro.tcp.stack import Listener, TcpStack
from repro.tcp.tcb import TcpConnection
from repro.udp.udp import UdpSocket, UdpStack


class Node:
    """The networking personality of one host."""

    def __init__(self, host: Host, tcp_options: Optional[TcpOptions] = None):
        self.host = host
        self.sim = host.sim
        self.udp = UdpStack(host)
        self.tcp = TcpStack(host, tcp_options)

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def ip(self) -> IPAddress:
        return self.host.ip

    # -- TCP ------------------------------------------------------------

    def connect(
        self,
        remote_ip,
        remote_port: int,
        options: Optional[TcpOptions] = None,
    ) -> TcpConnection:
        """Active-open a TCP connection."""
        return self.tcp.connect(remote_ip, remote_port, options=options)

    def listen(
        self,
        port: int,
        ip=None,
        options: Optional[TcpOptions] = None,
    ) -> Listener:
        """Passive-open a TCP port."""
        return self.tcp.listen(port, ip=ip, options=options)

    # -- UDP ------------------------------------------------------------

    def udp_socket(self) -> UdpSocket:
        return self.udp.socket()

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19) of both stacks."""
        self.udp.dispose()
        self.tcp.dispose()


def node_for(host: Host, tcp_options: Optional[TcpOptions] = None) -> Node:
    """Idempotently attach a :class:`Node` to a host."""
    existing = getattr(host, "_node", None)
    if existing is None:
        existing = Node(host, tcp_options)
        host._node = existing
    return existing
