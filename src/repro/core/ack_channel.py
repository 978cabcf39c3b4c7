"""The acknowledgement channel (paper §4.3).

Backups are daisy-chained along a one-way channel ending at the
primary.  When a backup is ready to send a TCP packet it does *not*
send it to the client; instead it forwards the two flow-control fields
of the TCP header — the SEQUENCE NUMBER and the ACKNOWLEDGEMENT
NUMBER — to the previous server in the chain.  The channel is a
kernel-to-kernel UDP connection: low overhead, no ordering across
connections, and lost messages are absorbed by client retransmissions
(the trade-off the paper makes explicit).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.simulator import Timer
from repro.udp.udp import UdpSocket

if TYPE_CHECKING:
    from repro.hydranet.host_server import HostServer

ACK_CHANNEL_PORT = 5500

#: The ordered channel's per-destination retransmission period and the
#: number of unanswered rounds after which it gives the predecessor up.
ORDERED_RETRANSMIT_INTERVAL = 0.1
ORDERED_MAX_TRIES = 20


#: The seven checksummed fields, each truncated to 32 bits.
_CHECKSUMMED = struct.Struct("<7I")


@dataclass(slots=True)
class AckChannelMessage:
    """Flow-control fields of one would-be TCP packet of a backup.

    ``seq_next`` is the sequence number *after* the packet (SEQ plus
    the packet's span), i.e. the first byte the backup has not yet
    sent; ``ack`` is the packet's ACKNOWLEDGEMENT NUMBER.  Both are raw
    32-bit wire values: primary and backups share ISS/IRS (deterministic
    ISS), so the numbers are directly comparable at the receiver.

    ``epoch`` stamps the sender's configuration epoch (DESIGN.md §9) so
    a receiver can reject reports from a stale view, and ``checksum``
    covers every field: both live in the 36-byte wire image's header
    headroom, so the wire size is unchanged.  ``checksum=None`` (the
    default) self-computes — a corrupted-in-flight copy keeps the
    original's now-stale checksum and is dropped on arrival.
    """

    service_ip: IPAddress
    service_port: int
    client_ip: IPAddress
    client_port: int
    seq_next: int
    ack: int
    epoch: int = 0
    checksum: Optional[int] = None

    wire_size = 36

    def __post_init__(self):
        if self.checksum is None:
            self.checksum = self._compute_checksum()

    def _compute_checksum(self) -> int:
        """CRC-32 over the fields' 32-bit truncations — the simulated
        stand-in for the UDP/IP checksum that real ack-channel datagrams
        would carry.  It detects every change confined to one field."""
        m = 0xFFFFFFFF
        return zlib.crc32(
            _CHECKSUMMED.pack(
                self.service_ip & m,
                self.service_port & m,
                self.client_ip & m,
                self.client_port & m,
                self.seq_next & m,
                self.ack & m,
                self.epoch & m,
            )
        )

    def checksum_valid(self) -> bool:
        return self.checksum == self._compute_checksum()

    @property
    def connection_key(self) -> tuple[IPAddress, int, IPAddress, int]:
        return (self.service_ip, self.service_port, self.client_ip, self.client_port)


class AckChannelEndpoint:
    """The per-host-server UDP endpoint of the acknowledgement channel.

    Dispatches incoming messages to the ft port handling the service,
    and sends outgoing messages to the predecessor server.
    """

    def __init__(self, host_server: "HostServer"):
        self.host_server = host_server
        self.sim = host_server.sim
        self.socket: UdpSocket = host_server.node.udp_socket()
        self.socket.bind(ACK_CHANNEL_PORT)
        self.socket.on_datagram = self._receive
        # (service_ip, service_port) -> handler(message, sender_ip)
        self._handlers: dict[
            tuple[IPAddress, int], Callable[[AckChannelMessage, IPAddress], None]
        ] = {}
        self.messages_sent = 0
        self.messages_received = 0
        self.messages_unclaimed = 0
        self.messages_corrupt_dropped = 0

    def register(
        self,
        service_ip,
        service_port: int,
        handler: Callable[[AckChannelMessage, IPAddress], None],
    ) -> None:
        self._handlers[(as_address(service_ip), service_port)] = handler

    def unregister(self, service_ip, service_port: int) -> None:
        self._handlers.pop((as_address(service_ip), service_port), None)

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): retransmission timers (ordered
        channel) and a fault plan's patched ``send``."""
        for name in ("_timers", "send"):
            vars(self).pop(name, None)

    def send(self, message: AckChannelMessage, predecessor_ip) -> None:
        """Forward flow-control information up the chain."""
        self.messages_sent += 1
        self.socket.send_to(as_address(predecessor_ip), ACK_CHANNEL_PORT, message)

    def _receive(self, data: object, src_ip: IPAddress, src_port: int, dst_ip) -> None:
        if not isinstance(data, AckChannelMessage):
            return
        self.messages_received += 1
        self._dispatch(data, src_ip)

    def _dispatch(self, data: AckChannelMessage, src_ip: IPAddress) -> None:
        if not data.checksum_valid():
            # Corrupted in flight: drop before anything (including the
            # monitors) can see the bogus watermarks.  Honest senders
            # always produce a valid checksum, so this path only fires
            # under fault injection.
            self.messages_corrupt_dropped += 1
            return
        handler = self._handlers.get((data.service_ip, data.service_port))
        if handler is None:
            self.messages_unclaimed += 1
            return
        handler(data, src_ip)


@dataclass
class SequencedAckMessage:
    """An :class:`AckChannelMessage` wrapped with a channel sequence
    number (ordered-channel mode)."""

    seq: int
    inner: AckChannelMessage
    wire_size = AckChannelMessage.wire_size + 8


@dataclass
class ChannelAck:
    """Receiver→sender acknowledgement of a channel sequence number."""

    acked: int
    wire_size = 12


class OrderedAckChannelEndpoint(AckChannelEndpoint):
    """A *reliable, in-order* acknowledgement channel — the design the
    paper considered and rejected (§4.3): it would provide message
    ordering across connections to the same replicated port, at the
    cost of per-message acknowledgements and retransmissions on the
    channel itself.

    Messages to each predecessor are numbered; the receiver delivers
    strictly in order (holding back gaps) and acks cumulatively; the
    sender retransmits unacknowledged messages.  Ablation A6 measures
    what that buys and costs against the paper's plain-UDP choice.
    """

    def __init__(self, host_server: "HostServer"):
        super().__init__(host_server)
        # Sender side, per destination.
        self._next_seq: dict[IPAddress, int] = {}
        self._unacked: dict[IPAddress, dict[int, SequencedAckMessage]] = {}
        self._timers: dict[IPAddress, Timer] = {}
        self._tries: dict[IPAddress, int] = {}
        # Receiver side, per source.
        self._expected: dict[IPAddress, int] = {}
        self._holdback: dict[IPAddress, dict[int, SequencedAckMessage]] = {}
        self.channel_retransmissions = 0
        self.held_back = 0

    # -- sender ----------------------------------------------------------

    def send(self, message: AckChannelMessage, predecessor_ip) -> None:
        dst = as_address(predecessor_ip)
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        wrapped = SequencedAckMessage(seq, message)
        self._unacked.setdefault(dst, {})[seq] = wrapped
        self.messages_sent += 1
        self.socket.send_to(dst, ACK_CHANNEL_PORT, wrapped)
        if dst not in self._timers:
            self._timers[dst] = Timer(self.sim, lambda d=dst: self._retransmit(d))
        if not self._timers[dst].running:
            self._tries[dst] = 0
            self._timers[dst].start(ORDERED_RETRANSMIT_INTERVAL)

    def _retransmit(self, dst: IPAddress) -> None:
        if self.host_server.crashed:
            return
        pending = self._unacked.get(dst)
        if not pending:
            return
        self._tries[dst] = self._tries.get(dst, 0) + 1
        if self._tries[dst] > ORDERED_MAX_TRIES:
            # The predecessor is gone; reconfiguration will handle it.
            pending.clear()
            return
        for seq in sorted(pending):
            self.channel_retransmissions += 1
            self.socket.send_to(dst, ACK_CHANNEL_PORT, pending[seq])
        self._timers[dst].start(ORDERED_RETRANSMIT_INTERVAL)

    # -- receiver -----------------------------------------------------------

    def _receive(self, data: object, src_ip: IPAddress, src_port: int, dst_ip) -> None:
        if isinstance(data, ChannelAck):
            pending = self._unacked.get(src_ip, {})
            for seq in [s for s in pending if s < data.acked]:
                del pending[seq]
            if not pending:
                self._tries[src_ip] = 0
                timer = self._timers.get(src_ip)
                if timer is not None:
                    timer.stop()
            return
        if isinstance(data, AckChannelMessage):
            # Interoperate with plain (unordered) senders.
            self.messages_received += 1
            self._dispatch(data, src_ip)
            return
        if not isinstance(data, SequencedAckMessage):
            return
        expected = self._expected.get(src_ip, 0)
        if data.seq < expected:
            pass  # duplicate
        elif data.seq == expected:
            self.messages_received += 1
            self._dispatch(data.inner, src_ip)
            expected += 1
            holdback = self._holdback.get(src_ip, {})
            while expected in holdback:
                queued = holdback.pop(expected)
                self.messages_received += 1
                self._dispatch(queued.inner, src_ip)
                expected += 1
            self._expected[src_ip] = expected
        else:
            self.held_back += 1
            self._holdback.setdefault(src_ip, {})[data.seq] = data
        self.socket.send_to(
            src_ip, ACK_CHANNEL_PORT, ChannelAck(acked=self._expected.get(src_ip, 0))
        )
