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


def test_every_replica_receives_the_intercepted_packet_unchanged(monkeypatch):
    """The redirector encapsulates the packet it intercepted for every
    target, without a per-target copy: each replica's inner packet *is*
    that packet, and no hop wrote its header."""
    from repro.apps.echo import EchoStream, echo_server_factory
    from repro.hydranet import HostServer

    intercepted = {}  # id -> (packet, header at interception)
    delivered = []  # (host server, inner packet)

    def header(packet):
        return (
            packet.src,
            packet.dst,
            packet.ttl,
            packet.ident,
            packet.frag_offset,
            packet.more_fragments,
            packet.wire_size,
        )

    redirect = Redirector._redirect_hook
    tunnel_endpoint = HostServer._tunnel_endpoint

    def spy_redirect(self, packet, nic):
        seen = header(packet)
        consumed = redirect(self, packet, nic)
        if consumed and packet.dst == service_ip:
            intercepted[id(packet)] = (packet, seen)
        return consumed

    def spy_tunnel(self, packet):
        delivered.append((self, packet.payload.inner))
        return tunnel_endpoint(self, packet)

    # Patched before the build: kernels hold the bound methods.
    monkeypatch.setattr(Redirector, "_redirect_hook", spy_redirect)
    monkeypatch.setattr(HostServer, "_tunnel_endpoint", spy_tunnel)
    with build_ft_system(n_backups=2, factory=echo_server_factory, port=7) as system:
        service_ip = as_address(system.service_ip)
        stream = EchoStream(system.client_node, system.service_ip, 7, total_bytes=8192)
        system.run_for(10.0)
        assert bytes(stream.received) == bytes(stream.sent)
        assert intercepted
        copies = {}  # id of an intercepted packet -> the servers it reached
        for server, inner in delivered:
            if inner.dst == service_ip:
                packet, _ = intercepted.get(id(inner), (None, None))
                assert inner is packet
                copies.setdefault(id(inner), []).append(server.name)
        for key, (packet, seen) in intercepted.items():
            # One tunnelled copy per replica, all carrying this packet.
            assert sorted(copies[key]) == ["hs_0", "hs_1", "hs_2"]
            assert header(packet) == seen
