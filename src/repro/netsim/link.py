"""Point-to-point duplex links.

A link joins two NICs.  Each direction is an independent channel with
its own bandwidth, propagation delay, loss rate, and drop-tail queue, so
asymmetric links and one-way partitions can be modelled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .packet import IPPacket
from .simulator import Simulator
from .trace import trace

if TYPE_CHECKING:
    from .nic import NIC


class Channel:
    """One direction of a link: a serializing transmitter, a drop-tail
    queue, a propagation delay, and an optional Bernoulli loss process."""

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
        self.loss_rate = loss_rate
        self.queue_capacity = queue_capacity
        self.destination: Optional["NIC"] = None
        # Optional delivery tap (gray-failure injection): called with
        # each arriving packet; returning True consumes the packet —
        # the tap took responsibility for dropping, mutating + passing
        # on, or re-posting it.  None (the default) is zero-overhead.
        self.tap = None
        self.up = True
        self._busy_until = 0.0
        self._queued = 0
        # Counters useful for congestion experiments.
        self.packets_sent = 0
        self.packets_dropped_queue = 0
        self.packets_lost = 0
        self.bytes_sent = 0

    @property
    def loss_rate(self) -> float:
        """Bernoulli loss probability; fault injection assigns it at
        run time, so every assignment is range-checked."""
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        self._loss_rate = value

    def transmit(self, packet: IPPacket) -> None:
        """Accept a packet for transmission (or drop it)."""
        sim = self.sim
        if not self.up or self.destination is None:
            trace(sim, self.name, "link-down-drop", packet)
            return
        if self._queued >= self.queue_capacity:
            self.packets_dropped_queue += 1
            trace(sim, self.name, "queue-drop", packet)
            return
        now = sim._now
        start = now if now >= self._busy_until else self._busy_until
        done = start + packet.wire_size * 8 / self.bandwidth_bps
        self._busy_until = done
        self._queued += 1
        sim.post_at(done, self._transmission_complete, packet)

    def _transmission_complete(self, packet: IPPacket) -> None:
        self._queued -= 1
        self.packets_sent += 1
        self.bytes_sent += packet.wire_size
        sim = self.sim
        if not self.up or self.destination is None:
            trace(sim, self.name, "link-down-drop", packet)
            return
        loss_rate = self._loss_rate
        if loss_rate and sim.rng.random() < loss_rate:
            self.packets_lost += 1
            trace(sim, self.name, "loss", packet)
            return
        sim.post(self.latency, self._arrive, packet)

    def _arrive(self, packet: IPPacket) -> None:
        nic = self.destination
        if not self.up or nic is None:
            trace(self.sim, self.name, "link-down-drop", packet)
            return
        if self.tap is not None and self.tap(packet):
            return
        if nic._up and self.sim.tracer is None:
            # NIC.deliver without its frame: an up interface with no
            # tracer to tell only counts the packet and hands it on.
            nic.packets_in += 1
            nic._kernel.receive_from_nic(packet, nic)
        else:
            nic.deliver(packet)

    @property
    def queue_depth(self) -> int:
        return self._queued


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

    def attach(self, nic_a: "NIC", nic_b: "NIC") -> None:
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
