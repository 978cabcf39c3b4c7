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
from typing import Optional

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


@dataclass(frozen=True)
class ServiceKey:
    """Transport-level service access point."""

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


class _RedirectorTable(dict):
    """``dict[ServiceKey, RedirectionEntry]`` that mirrors itself under
    plain ``(int(ip), port)`` tuple keys (:attr:`fast`).

    The data-path hooks run for every forwarded packet; looking up via
    a tuple avoids constructing and hashing a ``ServiceKey`` dataclass
    per packet.  Every mutating ``dict`` method is overridden to keep
    the mirror in sync, so a future caller cannot silently desync it.
    Entries mutated in place keep their identity, so the mirror stays
    valid without a rebuild.
    """

    def __init__(self):
        super().__init__()
        self.fast: dict[tuple[int, int], RedirectionEntry] = {}

    def __setitem__(self, key: ServiceKey, entry: RedirectionEntry) -> None:
        super().__setitem__(key, entry)
        self.fast[(key.ip._value, key.port)] = entry

    def __delitem__(self, key: ServiceKey) -> None:
        super().__delitem__(key)
        self.fast.pop((key.ip._value, key.port), None)

    def pop(self, key: ServiceKey, *default):
        self.fast.pop((key.ip._value, key.port), None)
        return super().pop(key, *default)

    def popitem(self):
        key, entry = super().popitem()
        self.fast.pop((key.ip._value, key.port), None)
        return key, entry

    def clear(self) -> None:
        super().clear()
        self.fast.clear()

    def update(self, *args, **kwargs) -> None:
        # Route through __setitem__ so the mirror sees every entry.
        for key, entry in dict(*args, **kwargs).items():
            self[key] = entry

    def __ior__(self, other):
        self.update(other)
        return self

    def setdefault(self, key: ServiceKey, default=None):
        if key not in self:
            self[key] = default
        return super().__getitem__(key)


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
        self.table: dict[ServiceKey, RedirectionEntry] = _RedirectorTable()
        self.kernel.add_packet_hook(self._fence_hook)
        self.kernel.add_packet_hook(self._redirect_hook)
        self.packets_redirected = 0
        self.packets_multicast = 0
        self.segments_fenced = 0
        #: Optional callback ``(segment_epoch, source_ip, entry)`` fired
        #: for every fenced segment — the management daemon uses it to
        #: demote the stale transmitter and to record fencing metrics.
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
        """
        if (
            packet.protocol != Protocol.TCP
            or packet.more_fragments
            or packet.frag_offset
        ):
            # Replicas emit MTU-sized segments, so client-bound service
            # output is never fragmented before the redirector.
            return False
        segment = packet.payload
        if not isinstance(segment, TCPSegment) or segment.epoch is None:
            return False
        entry = self.table.fast.get((packet.src._value, segment.src_port))
        if entry is None or not entry.fault_tolerant:
            return False
        if segment.epoch >= entry.epoch:
            return False
        self.segments_fenced += 1
        trace(self.sim, self.name, "fence", packet)
        invariants = self.sim.invariants
        if invariants is not None:
            invariants.on_fenced(segment.epoch, entry)
        if self.on_fenced is not None:
            self.on_fenced(segment.epoch, entry)
        return True  # consumed: the stale segment goes no further

    def _redirect_hook(self, packet: IPPacket, nic: NIC) -> bool:
        protocol = packet.protocol
        if protocol != Protocol.TCP and protocol != Protocol.UDP:
            return False
        if packet.more_fragments or packet.frag_offset:
            # Port information lives in the first fragment only; the
            # model never fragments before the redirector (end hosts
            # send MTU-sized packets), so pass fragments through.
            return False
        payload = packet.payload
        if not isinstance(payload, (TCPSegment, UDPDatagram)):
            return False
        port = payload.dst_port
        entry = self.table.fast.get((packet.dst._value, port))
        if entry is None or not entry.replicas:
            return False
        if entry.fault_tolerant:
            self.packets_multicast += 1
            targets = list(entry.replicas)
        else:
            targets = [entry.replicas[0]]
        self.packets_redirected += 1
        trace(self.sim, self.name, "redirect", packet)
        source = self.interfaces[0].ip if self.interfaces else packet.src
        for target in targets:
            # Shallow copy per target (replicas must not share the
            # mutable outer header); built by hand because
            # dataclasses.replace pays field introspection per call and
            # this runs once per redirected packet per replica.
            inner = IPPacket(
                src=packet.src,
                dst=packet.dst,
                protocol=packet.protocol,
                payload=packet.payload,
                ttl=packet.ttl,
                ident=packet.ident,
                frag_offset=packet.frag_offset,
                more_fragments=packet.more_fragments,
                dont_fragment=packet.dont_fragment,
                original_payload_size=packet.original_payload_size,
            )
            outer = encapsulate(inner, source, target)
            self.kernel.send_ip(outer)
        return True
