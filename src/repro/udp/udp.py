"""UDP protocol stack and datagram sockets.

UDP carries the HydraNet-FT acknowledgement channel (kernel-to-kernel)
and the replica management protocol, so it comes before TCP in the
dependency order.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.host import Host
from repro.netsim.packet import IPPacket, Protocol, UDPDatagram

EPHEMERAL_PORT_START = 49152
EPHEMERAL_PORT_END = 65535


class UdpError(RuntimeError):
    pass


class PortInUseError(UdpError):
    pass


# Callback signature: (data, source_ip, source_port, destination_ip).
# The destination address is passed through because virtual hosting
# means a socket can legitimately receive traffic for several IPs.
DatagramHandler = Callable[[object, IPAddress, int, IPAddress], None]


class UdpSocket:
    """A bound UDP endpoint.

    Incoming datagrams are queued; attach :attr:`on_datagram` for
    push-style delivery (the queue is bypassed entirely then).
    """

    def __init__(self, stack: "UdpStack"):
        self._stack = stack
        self.local_ip: Optional[IPAddress] = None
        self.local_port: Optional[int] = None
        self.on_datagram: Optional[DatagramHandler] = None
        self.recv_queue: list[tuple[object, IPAddress, int, IPAddress]] = []
        self.closed = False
        self.datagrams_sent = 0
        self.datagrams_received = 0

    @property
    def bound(self) -> bool:
        return self.local_port is not None

    def bind(self, port: int = 0, ip: Optional[IPAddress | str] = None) -> int:
        """Bind to ``port`` (0 picks an ephemeral port).  ``ip`` limits
        the socket to one local/virtual address; None accepts any."""
        if self.closed:
            raise UdpError("socket is closed")
        if self.bound:
            raise UdpError("socket already bound")
        address = as_address(ip) if ip is not None else None
        self.local_port = self._stack.register(self, port, address)
        self.local_ip = address
        return self.local_port

    def send_to(
        self, dst_ip: IPAddress | str, dst_port: int, data: object
    ) -> None:
        """Send a datagram.  ``data`` may be bytes or a structured
        message with a ``wire_size`` attribute."""
        if self.closed:
            raise UdpError("socket is closed")
        if not self.bound:
            self.bind()
        self._stack.send(self, as_address(dst_ip), dst_port, data)
        self.datagrams_sent += 1

    def deliver(
        self, data: object, src_ip: IPAddress, src_port: int, dst_ip: IPAddress
    ) -> None:
        if self.closed:
            return
        self.datagrams_received += 1
        if self.on_datagram is not None:
            self.on_datagram(data, src_ip, src_port, dst_ip)
        else:
            self.recv_queue.append((data, src_ip, src_port, dst_ip))

    def recv(self) -> Optional[tuple[object, IPAddress, int, IPAddress]]:
        """Pop the oldest queued datagram, or None."""
        if self.recv_queue:
            return self.recv_queue.pop(0)
        return None

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._stack.unregister(self)


class UdpStack:
    """Per-host UDP: port table, demultiplexing, checksum-free bliss."""

    def __init__(self, host: Host):
        self.host = host
        self.sim = host.sim
        # (ip or None, port) -> socket.  None means wildcard address.
        self._bindings: dict[tuple[Optional[IPAddress], int], UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_PORT_START
        host.kernel.register_protocol(Protocol.UDP, self._receive)
        self.datagrams_dropped_no_port = 0

    def socket(self) -> UdpSocket:
        return UdpSocket(self)

    # -- binding -------------------------------------------------------

    def register(
        self, sock: UdpSocket, port: int, ip: Optional[IPAddress]
    ) -> int:
        if port == 0:
            port = self._allocate_ephemeral(ip)
        key = (ip, port)
        if key in self._bindings:
            raise PortInUseError(f"udp port {port} (ip={ip}) already bound")
        self._bindings[key] = sock
        return port

    def unregister(self, sock: UdpSocket) -> None:
        self._bindings = {
            key: s for key, s in self._bindings.items() if s is not sock
        }

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): silence and unbind every socket."""
        for sock in self._bindings.values():
            sock.on_datagram = None
        self._bindings = {}

    def _allocate_ephemeral(self, ip: Optional[IPAddress]) -> int:
        for _ in range(EPHEMERAL_PORT_END - EPHEMERAL_PORT_START + 1):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > EPHEMERAL_PORT_END:
                self._next_ephemeral = EPHEMERAL_PORT_START
            if (ip, port) not in self._bindings:
                return port
        raise UdpError("ephemeral ports exhausted")

    # -- send/receive -----------------------------------------------------

    def send(
        self, sock: UdpSocket, dst_ip: IPAddress, dst_port: int, data: object
    ) -> None:
        src_ip = sock.local_ip
        if src_ip is None:
            nic = self.host.kernel.route_lookup(dst_ip)
            if nic is None and self.host.interfaces:
                nic = self.host.interfaces[0]
            if nic is None:
                raise UdpError(f"{self.host.name}: no route to {dst_ip}")
            src_ip = nic.ip
        packet = IPPacket(
            src=src_ip,
            dst=dst_ip,
            protocol=Protocol.UDP,
            payload=UDPDatagram(sock.local_port, dst_port, data),
        )
        self.host.kernel.send_ip(packet)

    def _receive(self, packet: IPPacket) -> None:
        dgram = packet.payload
        if not isinstance(dgram, UDPDatagram):
            return
        sock = self._bindings.get((packet.dst, dgram.dst_port))
        if sock is None:
            sock = self._bindings.get((None, dgram.dst_port))
        if sock is None:
            self.datagrams_dropped_no_port += 1
            return
        sock.deliver(dgram.data, packet.src, dgram.src_port, packet.dst)
