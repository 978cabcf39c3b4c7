"""Redirectors: routers that reroute (and for FT services, multicast)
packets for replicated services (paper §3, §4.2).

The redirector keeps a *redirector table* keyed by transport-level
service access point — ``(service IP, port)``.  Matching packets are
encapsulated IP-in-IP and tunnelled to the host server(s):

* plain replicated (scaling) services: one copy to the nearest replica;
* fault-tolerant services: one copy to the primary and one to each
  backup (a simple, non-reliable multicast — reliability comes from
  TCP's own flow/error control plus the ft-TCP machinery on the
  servers, never from the redirector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.host import HostProfile, MODERN
from repro.netsim.nic import NIC
from repro.netsim.packet import IPPacket, Protocol, TCPSegment, UDPDatagram
from repro.netsim.router import Router
from repro.netsim.simulator import Simulator
from repro.netsim.trace import trace
from repro.netsim.tunnel import encapsulate

#: Extra CPU per packet charged by the HydraNet-modified kernel on
#: redirectors (redirector-table lookup on every forwarded packet).
REDIRECTOR_SOFTWARE_OVERHEAD = 40e-6


class ServiceKey(NamedTuple):
    """Transport-level service access point.  A plain tuple, so the
    data path looks the table up with ``(packet.dst, port)`` directly."""

    ip: IPAddress
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass
class RedirectionEntry:
    """One row of the redirector table."""

    key: ServiceKey
    fault_tolerant: bool = False
    #: Host-server (real) addresses.  For FT entries ``replicas[0]`` is
    #: the primary and the rest are backups in chain order S1..SN; for
    #: scaling entries the list is in preference ("nearest") order.
    replicas: list[IPAddress] = field(default_factory=list)
    #: Current view/epoch of the service (DESIGN.md §9).  Bumped by the
    #: management daemon whenever the primary changes; client-bound
    #: segments stamped with an older epoch are fenced (dropped) by the
    #: redirector's data path.
    epoch: int = 0

    @property
    def primary(self) -> Optional[IPAddress]:
        return self.replicas[0] if self.replicas else None

    @property
    def backups(self) -> list[IPAddress]:
        return self.replicas[1:]


class RedirectorError(RuntimeError):
    pass


class Redirector(Router):
    """A router running the HydraNet(-FT) redirection software."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: HostProfile = MODERN,
        software_overhead: float = REDIRECTOR_SOFTWARE_OVERHEAD,
    ):
        super().__init__(sim, name, profile)
        self.kernel.software_overhead = software_overhead
        self.table: dict[ServiceKey, RedirectionEntry] = {}
        self.kernel.intercept = self._redirect_hook
        self.packets_redirected = 0
        self.packets_multicast = 0
        self.segments_fenced = 0
        #: Optional callback ``(segment_epoch, entry)`` fired for every
        #: fenced segment — the management daemon uses it to count the
        #: near miss and demote the stale transmitter.
        self.on_fenced = None

    # -- table management (driven by the management daemon) -------------

    def install_scaling(self, service_ip, port: int, host_server_ip) -> None:
        """Install/extend a plain (scaling) replication entry."""
        key = ServiceKey(as_address(service_ip), port)
        entry = self.table.get(key)
        if entry is None:
            entry = RedirectionEntry(key)
            self.table[key] = entry
        if entry.fault_tolerant:
            raise RedirectorError(f"{key} is a fault-tolerant service")
        target = as_address(host_server_ip)
        if target not in entry.replicas:
            entry.replicas.append(target)

    def install_ft_primary(self, service_ip, port: int, host_server_ip) -> None:
        key = ServiceKey(as_address(service_ip), port)
        entry = self.table.get(key)
        if entry is None:
            entry = RedirectionEntry(key, fault_tolerant=True)
            self.table[key] = entry
        entry.fault_tolerant = True
        target = as_address(host_server_ip)
        if target in entry.replicas:
            entry.replicas.remove(target)
        entry.replicas.insert(0, target)

    def install_ft_backup(self, service_ip, port: int, host_server_ip) -> None:
        key = ServiceKey(as_address(service_ip), port)
        entry = self.table.get(key)
        if entry is None:
            entry = RedirectionEntry(key, fault_tolerant=True)
            self.table[key] = entry
        entry.fault_tolerant = True
        target = as_address(host_server_ip)
        if target not in entry.replicas:
            entry.replicas.append(target)

    def remove_replica(self, service_ip, port: int, host_server_ip) -> None:
        key = ServiceKey(as_address(service_ip), port)
        entry = self.table.get(key)
        if entry is None:
            return
        target = as_address(host_server_ip)
        if target in entry.replicas:
            entry.replicas.remove(target)
        if not entry.replicas:
            del self.table[key]

    def remove_service(self, service_ip, port: int) -> None:
        self.table.pop(ServiceKey(as_address(service_ip), port), None)

    def entry_for(self, service_ip, port: int) -> Optional[RedirectionEntry]:
        return self.table.get(ServiceKey(as_address(service_ip), port))

    # -- the data path -----------------------------------------------------

    def _fence_hook(self, packet: IPPacket, nic: NIC) -> bool:
        """Drop client-bound service output stamped with a stale epoch.

        Every segment a replica emits towards a client carries the
        service source address, so it crosses the redirector; a replica
        still in primary mode for an epoch older than the table's (a
        partitioned-but-alive ex-primary) is *fenced* here and can never
        interleave bytes with the current primary (DESIGN.md §9).
        Called by :meth:`_redirect_hook` for unfragmented TCP segments
        only.
        """
        segment = packet.payload
        if segment.epoch is None:
            return False
        entry = self.table.get((packet.src, segment.src_port))
        if entry is None or not entry.fault_tolerant:
            return False
        if segment.epoch >= entry.epoch:
            return False
        self.segments_fenced += 1
        trace(self.sim, self.name, "fence", packet)
        if self.on_fenced is not None:
            self.on_fenced(segment.epoch, entry)
        return True  # consumed: the stale segment goes no further

    def _redirect_hook(self, packet: IPPacket, nic: NIC) -> bool:
        """The data path, the kernel's ``intercept``: True when the
        packet was consumed.  A TCP segment meets the epoch fence, then
        the armed invariant monitors (which must see exactly what
        passed the fence), then the table; a UDP datagram meets only
        the table.  Fragments and every other protocol (IP-in-IP above
        all) pass on."""
        protocol = packet.protocol
        if protocol != Protocol.TCP and protocol != Protocol.UDP:
            return False
        if packet.more_fragments or packet.frag_offset:
            # Port information lives in the first fragment only; the
            # model never fragments before the redirector (end hosts
            # send MTU-sized packets), so pass fragments through.
            return False
        payload = packet.payload
        if protocol == Protocol.TCP:
            if not isinstance(payload, TCPSegment):
                return False
            if self._fence_hook(packet, nic):
                return True
            invariants = self.sim.invariants
            if invariants is not None:
                invariants.redirector_hook(packet, nic)
        elif not isinstance(payload, UDPDatagram):
            return False
        entry = self.table.get((packet.dst, payload.dst_port))
        if entry is None or not entry.replicas:
            return False
        if entry.fault_tolerant:
            self.packets_multicast += 1
            targets = entry.replicas
        else:
            targets = entry.replicas[:1]
        self.packets_redirected += 1
        trace(self.sim, self.name, "redirect", packet)
        source = self.interfaces[0].ip if self.interfaces else packet.src
        for target in targets:
            # Every outer header is fresh, but all copies carry the one
            # intercepted packet: no hop writes an inner header (the
            # host server's tunnel endpoint only delivers it locally and
            # the transport stacks only read it).  send_ip only posts,
            # so the table cannot change under this loop.
            self.kernel.send_ip(encapsulate(packet, source, target))
        return True
