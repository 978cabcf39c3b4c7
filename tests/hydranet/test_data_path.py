"""The redirector's data path is one fixed sequence per received packet:
a TCP segment meets the epoch fence, then the armed invariant monitors,
then the table; a UDP datagram meets only the table; IP-in-IP passes
on untouched."""

from repro.experiments.testbeds import build_ft_system
from repro.hydranet import Redirector
from repro.invariants import InvariantSet, attach_invariants
from repro.netsim import IPPacket, Protocol, RawData, TCPSegment, UDPDatagram, as_address
from repro.netsim.host import Kernel
from repro.netsim.packet import FLAG_ACK
from repro.netsim.tunnel import encapsulate


def test_only_tcp_segments_meet_the_fence_then_the_monitor(monkeypatch):
    calls = []

    def spy(owner, name, label):
        original = getattr(owner, name)

        def wrapper(self, packet, *rest):
            calls.append((label, packet))
            return original(self, packet, *rest)

        monkeypatch.setattr(owner, name, wrapper)

    # Wrapped before the build: the kernel holds the bound data path.
    spy(Redirector, "_redirect_hook", "path")
    spy(Redirector, "_fence_hook", "fence")
    spy(InvariantSet, "redirector_hook", "monitor")
    spy(Kernel, "_forward", "forward")
    with build_ft_system(port=7) as system:
        attach_invariants(system)
        redirector, server = system.redirector, system.servers[0]
        client_ip, service_ip = system.client.ip, as_address(system.service_ip)
        probe = IPPacket(
            src=client_ip, dst=server.ip, protocol=Protocol.ICMP, payload=RawData(b"x")
        )
        tunnelled = encapsulate(probe, client_ip, server.ip)
        datagram = IPPacket(
            src=client_ip,
            dst=server.ip,
            protocol=Protocol.UDP,
            payload=UDPDatagram(40000, 9, b"x"),
        )
        epoch = redirector.entry_for(service_ip, 7).epoch
        stamped = IPPacket(
            src=service_ip,
            dst=client_ip,
            protocol=Protocol.TCP,
            payload=TCPSegment(7, 40000, 0, 0, FLAG_ACK, 0, epoch=epoch),
        )
        injected = [tunnelled, datagram, stamped]
        for packet in injected:
            redirector.kernel.receive_from_nic(packet, redirector.interfaces[0])
        system.sim.run(until=system.sim.now + 0.01)
        seen = [
            (label, i)
            for label, packet in calls
            for i, mine in enumerate(injected)
            if packet is mine
        ]
        # Nothing is consumed: each packet is forwarded after its checks.
        assert seen == [
            ("path", 0),
            ("forward", 0),
            ("path", 1),
            ("forward", 1),
            ("path", 2),
            ("fence", 2),
            ("monitor", 2),
            ("forward", 2),
        ]
        assert system.sim.invariants.violations == []
