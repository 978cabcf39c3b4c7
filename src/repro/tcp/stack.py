"""Per-host TCP stack: port table, demultiplexing, listeners.

The stack is deliberately kernel-shaped: listeners and connections hang
off a table keyed by the classic 4-tuple, and HydraNet-FT's replicated
ports plug in through the listener's ``configure_connection`` hook and a
deterministic ISS policy (all replicas of a connection must produce the
same initial sequence number for client ACKs to mean the same thing at
every replica — see DESIGN.md).
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.host import Host
from repro.netsim.packet import FLAG_ACK, FLAG_RST, IPPacket, Protocol, TCPSegment

from .options import TcpOptions
from .seqnum import seq_add
from .tcb import TcpConnection, TcpError

EPHEMERAL_PORT_START = 32768
EPHEMERAL_PORT_END = 49151

#: Connection-table key: (local ip, local port, remote ip, remote
#: port).  Addresses are ints, so the per-segment demux hashes and
#: compares in C (``conn_key`` builds one).
ConnKey = tuple[IPAddress, int, IPAddress, int]

IssPolicy = Callable[[IPAddress, int, IPAddress, int], int]


def deterministic_iss(
    local_ip: IPAddress, local_port: int, remote_ip: IPAddress, remote_port: int
) -> int:
    """ISS as a pure function of the 4-tuple.

    Every replica of a replicated service computes the same ISS for the
    same client connection, which keeps the byte streams of primary and
    backups aligned (the client's ACKs are multicast to all of them).
    """
    key = f"{local_ip}:{local_port}:{remote_ip}:{remote_port}".encode()
    return zlib.crc32(key) & 0xFFFFFFFF


def conn_key(
    local_ip: IPAddress, local_port: int, remote_ip: IPAddress, remote_port: int
) -> ConnKey:
    return (local_ip, local_port, remote_ip, remote_port)


class Listener:
    """A passive TCP endpoint (the result of ``listen()``)."""

    def __init__(
        self,
        stack: "TcpStack",
        port: int,
        ip: Optional[IPAddress],
        options: TcpOptions,
    ):
        self.stack = stack
        self.port = port
        self.ip = ip
        self.options = options
        #: Called with the new connection once it is ESTABLISHED.
        self.on_accept: Optional[Callable[[TcpConnection], None]] = None
        #: Called with the new connection right after creation, before
        #: the SYN-ACK goes out — the ft-TCP layer installs its gates
        #: and output filter here.
        self.configure_connection: Optional[Callable[[TcpConnection], None]] = None
        #: Override the ISS policy for connections to this port.
        self.iss_policy: Optional[IssPolicy] = None
        #: When True, non-SYN segments that match no connection are
        #: dropped instead of answered with RST.  Replicated ports set
        #: this: a replica that joined mid-connection (or lost its
        #: state) must never reset the client connection its peers are
        #: still serving.
        self.silent_on_unknown = False
        #: Called with (packet, segment) for each silently dropped
        #: unknown segment — the ft failure estimator counts them (a
        #: client retransmitting into a connection nobody answers).
        self.on_unknown_segment: Optional[Callable] = None
        #: When False the listener stays bound but spawns no new
        #: connections (a shut-down replica keeps its port reserved and
        #: silent rather than RSTing the service's clients).
        self.accept_new = True
        self.closed = False
        self.connections_accepted = 0

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.stack.remove_listener(self)


class TcpStack:
    """TCP protocol machinery for one host."""

    def __init__(self, host: Host, options: Optional[TcpOptions] = None):
        self.host = host
        self.sim = host.sim
        self.options = options or TcpOptions()
        self.connections: dict[ConnKey, TcpConnection] = {}
        self.listeners: dict[tuple[Optional[IPAddress], int], Listener] = {}
        self._next_ephemeral = EPHEMERAL_PORT_START
        self._iss_counter = 1000
        host.kernel.register_protocol(Protocol.TCP, self._receive)
        self.resets_sent = 0

    # -- ISS ------------------------------------------------------------

    def default_iss(
        self,
        local_ip: IPAddress,
        local_port: int,
        remote_ip: IPAddress,
        remote_port: int,
    ) -> int:
        """BSD-style: a counter bumped per connection (plus a seed so
        different hosts do not collide)."""
        self._iss_counter = (self._iss_counter + 64_000) % (2**32)
        return (self._iss_counter + int(local_ip)) % (2**32)

    # -- active open -------------------------------------------------------

    def connect(
        self,
        remote_ip: IPAddress | str,
        remote_port: int,
        local_ip: Optional[IPAddress | str] = None,
        options: Optional[TcpOptions] = None,
    ) -> TcpConnection:
        remote = as_address(remote_ip)
        opts = options or self.options
        nic = self.host.kernel.route_lookup(remote)
        if nic is None:
            raise TcpError(f"{self.host.name}: no route to {remote}")
        src = as_address(local_ip) if local_ip is not None else nic.ip
        port = self._allocate_ephemeral(src, remote, remote_port)
        mss = opts.effective_mss(nic.mtu)
        iss = self.default_iss(src, port, remote, remote_port)
        conn = TcpConnection(self, src, port, remote, remote_port, opts, mss, iss)
        self.connections[conn_key(src, port, remote, remote_port)] = conn
        conn.open_active()
        return conn

    def _allocate_ephemeral(
        self, local_ip: IPAddress, remote_ip: IPAddress, remote_port: int
    ) -> int:
        for _ in range(EPHEMERAL_PORT_END - EPHEMERAL_PORT_START + 1):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > EPHEMERAL_PORT_END:
                self._next_ephemeral = EPHEMERAL_PORT_START
            if conn_key(local_ip, port, remote_ip, remote_port) not in self.connections:
                return port
        raise TcpError("ephemeral ports exhausted")

    # -- passive open --------------------------------------------------------

    def listen(
        self,
        port: int,
        ip: Optional[IPAddress | str] = None,
        options: Optional[TcpOptions] = None,
    ) -> Listener:
        address = as_address(ip) if ip is not None else None
        key = (address, port)
        if key in self.listeners:
            raise TcpError(f"tcp port {port} (ip={address}) already listening")
        listener = Listener(self, port, address, options or self.options)
        self.listeners[key] = listener
        return listener

    def remove_listener(self, listener: Listener) -> None:
        self.listeners = {
            key: l for key, l in self.listeners.items() if l is not listener
        }

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): connections, then both tables."""
        for conn in self.connections.values():
            conn.dispose()
        self.connections, self.listeners = {}, {}

    # -- demux ---------------------------------------------------------------

    def _receive(self, packet: IPPacket) -> None:
        segment = packet.payload
        if not isinstance(segment, TCPSegment):
            return
        conn = self.connections.get(  # conn_key, built in place
            (packet.dst, segment.dst_port, packet.src, segment.src_port)
        )
        if conn is not None:
            conn.segment_arrived(segment)
            return
        listener = self.listeners.get((packet.dst, segment.dst_port))
        if listener is None:
            listener = self.listeners.get((None, segment.dst_port))
        if (
            listener is not None
            and not listener.closed
            and listener.accept_new
            and segment.syn
            and not segment.has_ack
        ):
            self._spawn_from_syn(listener, packet, segment)
            return
        if listener is not None and listener.silent_on_unknown:
            if listener.on_unknown_segment is not None:
                listener.on_unknown_segment(packet, segment)
            return
        if not segment.rst:
            self._send_rst_for(packet, segment)

    def _spawn_from_syn(
        self, listener: Listener, packet: IPPacket, segment: TCPSegment
    ) -> None:
        policy = listener.iss_policy or self.default_iss
        iss = policy(packet.dst, listener.port, packet.src, segment.src_port)
        conn = self.spawn(listener, packet.dst, packet.src, segment.src_port, iss, segment.seq)
        conn.open_passive(segment)

    def spawn(
        self, listener: Listener, local_ip: IPAddress, remote_ip: IPAddress, remote_port, iss, irs
    ) -> TcpConnection:
        """A new connection of ``listener``, in the table and configured
        by the listener's hook — what a SYN creates, and what a live
        joiner synthesizes from a snapshot.  Both sequence spaces are
        fixed before the hook runs."""
        nic = self.host.kernel.route_lookup(remote_ip)
        opts = listener.options
        mss = opts.effective_mss(nic.mtu if nic is not None else 1500)
        conn = TcpConnection(
            self, local_ip, listener.port, remote_ip, remote_port, opts, mss, iss, listener
        )
        conn.irs = irs
        self.connections[conn_key(local_ip, listener.port, remote_ip, remote_port)] = conn
        if listener.configure_connection is not None:
            listener.configure_connection(conn)
        return conn

    def connection_established(self, conn: TcpConnection) -> None:
        """Server-side connection reached ESTABLISHED."""
        listener = conn._listener
        if listener is not None and not listener.closed:
            listener.connections_accepted += 1
            if listener.on_accept is not None:
                listener.on_accept(conn)

    def connection_closed(self, conn: TcpConnection) -> None:
        key = conn_key(conn.local_ip, conn.local_port, conn.remote_ip, conn.remote_port)
        if self.connections.get(key) is conn:
            del self.connections[key]

    # -- wire ---------------------------------------------------------------

    def send_segment(self, conn: TcpConnection, segment: TCPSegment) -> None:
        packet = IPPacket(
            src=conn.local_ip,
            dst=conn.remote_ip,
            protocol=Protocol.TCP,
            payload=segment,
        )
        self.host.kernel.send_ip(packet)

    def _send_rst_for(self, packet: IPPacket, segment: TCPSegment) -> None:
        self.resets_sent += 1
        if segment.has_ack:
            seq, ack, flags = segment.ack, 0, FLAG_RST
        else:
            seq = 0
            ack = seq_add(segment.seq, segment.seq_span)
            flags = FLAG_RST | FLAG_ACK
        rst = TCPSegment(
            src_port=segment.dst_port,
            dst_port=segment.src_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=0,
        )
        self.host.kernel.send_ip(
            IPPacket(src=packet.dst, dst=packet.src, protocol=Protocol.TCP, payload=rst)
        )
