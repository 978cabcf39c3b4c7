"""The one-event hop against the two-event channel it replaced.

:class:`ReferenceChannel` is the channel as it was before lossless hops
were fused: every accepted packet gets a ``_transmission_complete``
event at ``done`` and an ``_arrive`` event one latency later.  The
differential drives it and :class:`~repro.netsim.link.Channel` with the
same seeded script — bursts into a short drop-tail queue, ``up`` flaps
and loss windows that open and close while packets are serializing, a
consuming tap — and requires the same arrivals, the same counters at
every probe, and the same ``sim.rng`` state at the end.
"""

import random

import pytest

from repro.netsim import IPAddress, IPPacket, Protocol, RawData, Simulator
from repro.netsim.link import Channel


class ReferenceChannel:
    def __init__(self, sim, name, bandwidth_bps, latency, loss_rate=0.0, queue_capacity=64):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.loss_rate = loss_rate
        self.queue_capacity = queue_capacity
        self.destination = None
        self.tap = None
        self.up = True
        self._busy_until = 0.0
        self.queue_depth = 0
        self.packets_sent = 0
        self.packets_dropped_queue = 0
        self.packets_lost = 0
        self.bytes_sent = 0

    def transmit(self, packet):
        sim = self.sim
        if not self.up or self.destination is None:
            return
        if self.queue_depth >= self.queue_capacity:
            self.packets_dropped_queue += 1
            return
        now = sim.now
        start = now if now >= self._busy_until else self._busy_until
        done = start + packet.wire_size * 8 / self.bandwidth_bps
        self._busy_until = done
        self.queue_depth += 1
        sim.post_at(done, self._transmission_complete, packet)

    def _transmission_complete(self, packet):
        self.queue_depth -= 1
        self.packets_sent += 1
        self.bytes_sent += packet.wire_size
        sim = self.sim
        if not self.up or self.destination is None:
            return
        if self.loss_rate and sim.rng.random() < self.loss_rate:
            self.packets_lost += 1
            return
        sim.post(self.latency, self._arrive, packet)

    def _arrive(self, packet):
        if not self.up or self.destination is None:
            return
        if self.tap is not None and self.tap(packet):
            return
        self.destination.deliver(packet)


def make_packet(size):
    return IPPacket(
        src=IPAddress("10.0.0.1"),
        dst=IPAddress("10.0.0.2"),
        protocol=Protocol.ICMP,
        payload=RawData(b"x" * (size - 20)),
    )


def make_script(seed, horizon=1.0):
    """``(time, channel index, op, argument)`` rows, in time order.
    Transmission takes 0.4-12 ms and windows last 1-40 ms, so most
    flaps and loss windows open or close on a serializing packet."""
    rng = random.Random(seed)
    script = []
    for index in range(2):
        t = 0.0
        while t < horizon:
            t += rng.expovariate(1 / 0.012)
            for _ in range(rng.choice([1, 1, 2, 3, 8])):  # 8 overflows the queue
                script.append((t, index, "transmit", make_packet(rng.randrange(50, 1500))))
        for op, on, off in (
            ("up", False, True),
            ("loss_rate", rng.choice([0.3, 1.0]), 0.0),
            ("loss_rate", 0.5, 0.2),  # lossy to lossy: nothing to hand back
            ("tap", lambda packet: packet.wire_size % 3 == 0, None),
        ):
            for _ in range(12):
                at = rng.uniform(0, horizon)
                script.append((at, index, op, on))
                script.append((at + rng.uniform(0.001, 0.04), index, op, off))
        for _ in range(40):
            script.append((rng.uniform(0, horizon * 1.1), index, "probe", None))
    script.sort(key=lambda row: row[0])
    return script


def play(channel_cls, script, seed):
    sim = Simulator(seed)
    arrivals, probes = [], []

    class Sink:
        def deliver(self, packet):
            arrivals.append((sim.now, id(packet)))

    channels = [
        channel_cls(sim, "fast", 10_000_000, 0.002, queue_capacity=5),
        channel_cls(sim, "slow", 1_000_000, 0.005, queue_capacity=5),
    ]
    for channel in channels:
        channel.destination = Sink()

    def counters(channel):
        return (
            channel.queue_depth,
            channel.packets_sent,
            channel.bytes_sent,
            channel.packets_dropped_queue,
            channel.packets_lost,
        )

    def apply(index, op, argument):
        channel = channels[index]
        if op == "transmit":
            channel.transmit(argument)
        elif op == "probe":
            probes.append((sim.now, index, counters(channel)))
        else:
            if op != "tap":  # how deep the flap or the loss window cuts
                probes.append((sim.now, index, op, argument, channel.queue_depth))
            setattr(channel, op, argument)

    for at, index, op, argument in script:
        sim.schedule_at(at, apply, index, op, argument)
    sim.run_until_idle()
    return {
        "arrivals": arrivals,
        "probes": probes,
        "final": [counters(channel) for channel in channels],
        "rng": sim.rng.getstate(),
        "events": sim.events_processed,
    }


@pytest.mark.parametrize("seed", range(6))
def test_fused_channel_matches_two_event_reference(seed):
    script = make_script(seed)
    fused = play(Channel, script, seed)
    reference = play(ReferenceChannel, script, seed)

    # The script does what the docstring says it does.
    cuts = [p for p in reference["probes"] if len(p) == 5 and p[4] > 0]
    assert any(p[2] == "up" and p[3] is False for p in cuts)
    assert any(p[2] == "loss_rate" and p[3] for p in cuts)
    assert all(final[3] > 0 and final[4] > 0 for final in reference["final"])
    assert 0 < len(reference["arrivals"]) < sum(final[1] for final in reference["final"])

    assert fused["arrivals"] == reference["arrivals"]
    assert fused["probes"] == reference["probes"]
    assert fused["final"] == reference["final"]
    assert fused["rng"] == reference["rng"]
    assert fused["events"] < reference["events"]


def _one_hop(loss_rate=0.0):
    sim = Simulator()
    channel = Channel(sim, "c", 1_000_000, 0.010, loss_rate=loss_rate)
    delivered = []

    class Sink:
        def deliver(self, packet):
            delivered.append(sim.now)

    channel.destination = Sink()
    channel.transmit(make_packet(1000))
    return sim, channel, delivered


def test_lossless_hop_costs_one_channel_event():
    sim, channel, delivered = _one_hop()
    sim.run_until_idle()
    assert delivered == [0.008 + 0.010]
    assert sim.events_processed == 1
    assert (channel.packets_sent, channel.bytes_sent, channel.queue_depth) == (1, 1000, 0)


def test_counters_settle_at_done_not_at_arrival():
    sim, channel, delivered = _one_hop()
    sim.run(until=0.007)
    assert (channel.queue_depth, channel.packets_sent, channel.bytes_sent) == (1, 0, 0)
    sim.run(until=0.009)  # serialized, still propagating
    assert (channel.queue_depth, channel.packets_sent, channel.bytes_sent) == (0, 1, 1000)
    assert delivered == []


def test_lossy_hop_keeps_both_events():
    sim, channel, delivered = _one_hop(loss_rate=1e-9)
    sim.run_until_idle()
    assert len(delivered) == 1
    assert sim.events_processed == 2


def test_handed_back_packet_is_checked_at_done():
    """Down at ``done``, up again before the arrival: only a check at
    ``done`` drops the packet."""
    sim, channel, delivered = _one_hop()
    sim.schedule_at(0.004, setattr, channel, "up", False)
    sim.schedule_at(0.012, setattr, channel, "up", True)
    sim.run_until_idle()
    assert delivered == []
    assert channel.packets_sent == 1
