"""Point-to-point duplex links.

A link joins two NICs.  Each direction is an independent channel with
its own bandwidth, propagation delay, loss rate, and drop-tail queue, so
asymmetric links and one-way partitions can be modelled.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from .packet import IPPacket
from .simulator import Simulator
from .trace import trace

if TYPE_CHECKING:
    from .nic import NIC


class Channel:
    """One direction of a link: a serializing transmitter, a drop-tail
    queue, a propagation delay, and an optional Bernoulli loss process.

    A packet's life on the channel has two instants: ``done``, when its
    last bit leaves the transmitter (the packet counts as sent, frees
    its queue slot, is dropped if the channel is down and draws from
    ``sim.rng`` if the channel is lossy), and ``done + latency``, when
    it arrives.  A channel that is up and lossless when it accepts a
    packet has nothing to decide at ``done``, so it posts the arrival
    alone — one event per hop (DESIGN.md §10) — and settles the
    counters and the queue slot lazily, the next time anyone looks.
    Should the channel go down or turn lossy while such a packet is
    still serializing, the setters of :attr:`up` and :attr:`loss_rate`
    hand it back to the two-event path, so the check and the draw
    happen at ``done`` all the same.  A channel that is lossy at
    ``transmit`` uses the two-event path from the start.

    ``latency`` is read when the packet is accepted; nothing changes it
    at run time.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        latency: float,
        loss_rate: float = 0.0,
        queue_capacity: int = 64,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.queue_capacity = queue_capacity
        self.destination: Optional["NIC"] = None
        # Optional delivery tap (gray-failure injection): called with
        # each arriving packet; returning True consumes the packet —
        # the tap took responsibility for dropping, mutating + passing
        # on, or re-posting it.  None (the default) is zero-overhead.
        self.tap = None
        self._up = True
        self._busy_until = 0.0
        # An accepted packet is a ``[done, packet]`` entry.  Those still
        # holding a queue slot: ``_queued`` counts the ones with a
        # ``_transmission_complete`` event pending, ``_serializing``
        # holds the one-event ones in ``done`` order (see ``_settle``).
        self._queued = 0
        self._serializing: deque[list] = deque()
        self._loss_rate = 0.0
        self.loss_rate = loss_rate
        # Counters useful for congestion experiments.
        self._packets_sent = 0
        self._bytes_sent = 0
        self.packets_dropped_queue = 0
        self.packets_lost = 0

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        if self._up and not value:
            self._hand_back()
        self._up = value

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if value and not self._loss_rate:
            self._hand_back()
        self._loss_rate = value

    @property
    def packets_sent(self) -> int:
        self._settle()
        return self._packets_sent

    @property
    def bytes_sent(self) -> int:
        self._settle()
        return self._bytes_sent

    @property
    def queue_depth(self) -> int:
        self._settle()
        return self._queued + len(self._serializing)

    def transmission_time(self, packet: IPPacket) -> float:
        return packet.wire_size * 8 / self.bandwidth_bps

    def transmit(self, packet: IPPacket) -> None:
        """Accept a packet for transmission (or drop it)."""
        sim = self.sim
        if not self._up or self.destination is None:
            trace(sim, self.name, "link-down-drop", packet)
            return
        now = sim._now
        serializing = self._serializing
        if serializing and serializing[0][0] <= now:
            self._settle()
        if self._queued + len(serializing) >= self.queue_capacity:
            self.packets_dropped_queue += 1
            trace(sim, self.name, "queue-drop", packet)
            return
        start = now if now >= self._busy_until else self._busy_until
        done = start + packet.wire_size * 8 / self.bandwidth_bps
        self._busy_until = done
        entry = [done, packet]
        if self._loss_rate:
            self._queued += 1
            sim.post_at(done, self._transmission_complete, entry)
        else:
            serializing.append(entry)
            sim.post_at(done + self.latency, self._arrive, entry)

    def _settle(self) -> None:
        """Count out the one-event packets whose ``done`` has passed."""
        now = self.sim._now
        serializing = self._serializing
        while serializing and serializing[0][0] <= now:
            self._packets_sent += 1
            self._bytes_sent += serializing.popleft()[1].wire_size

    def _hand_back(self) -> None:
        """The channel is about to go down or turn lossy: every
        one-event packet still serializing gets its ``done`` event after
        all, and the arrival already posted for it is disarmed."""
        self._settle()
        serializing = self._serializing
        while serializing:
            entry = serializing.popleft()
            self._queued += 1
            self.sim.post_at(entry[0], self._transmission_complete, entry[:])
            entry[1] = None

    def _transmission_complete(self, entry: list) -> None:
        self._queued -= 1
        packet = entry[1]
        self._packets_sent += 1
        self._bytes_sent += packet.wire_size
        sim = self.sim
        if not self._up or self.destination is None:
            trace(sim, self.name, "link-down-drop", packet)
            return
        if self._loss_rate and sim.rng.random() < self._loss_rate:
            self.packets_lost += 1
            trace(sim, self.name, "loss", packet)
            return
        sim.post(self.latency, self._arrive, entry)

    def _arrive(self, entry: list) -> None:
        packet = entry[1]
        if packet is None:  # handed back: arrives through _transmission_complete
            return
        if not self._up or self.destination is None:
            trace(self.sim, self.name, "link-down-drop", packet)
            return
        if self.tap is not None and self.tap(packet):
            return
        self.destination.deliver(packet)


class Link:
    """A duplex point-to-point link between two NICs."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 10_000_000.0,
        latency: float = 0.001,
        loss_rate: float = 0.0,
        queue_capacity: int = 64,
        name: str = "link",
    ):
        self.sim = sim
        self.name = name
        self.a_to_b = Channel(
            sim, f"{name}:a->b", bandwidth_bps, latency, loss_rate, queue_capacity
        )
        self.b_to_a = Channel(
            sim, f"{name}:b->a", bandwidth_bps, latency, loss_rate, queue_capacity
        )
        self._nic_a: Optional["NIC"] = None
        self._nic_b: Optional["NIC"] = None

    def attach(self, nic_a: "NIC", nic_b: "NIC") -> None:
        self._nic_a, self._nic_b = nic_a, nic_b
        self.a_to_b.destination = nic_b
        self.b_to_a.destination = nic_a
        nic_a.connect(self.a_to_b)
        nic_b.connect(self.b_to_a)
        self.a_to_b.name = f"{self.name}:{nic_a.host.name}->{nic_b.host.name}"
        self.b_to_a.name = f"{self.name}:{nic_b.host.name}->{nic_a.host.name}"

    @property
    def up(self) -> bool:
        return self.a_to_b.up and self.b_to_a.up

    def set_up(self, up: bool) -> None:
        """Bring both directions up or down (fault injection)."""
        self.a_to_b.up = up
        self.b_to_a.up = up

    def set_loss_rate(self, loss_rate: float) -> None:
        self.a_to_b.loss_rate = loss_rate
        self.b_to_a.loss_rate = loss_rate
