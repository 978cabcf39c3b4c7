"""Hosts and their (simulated) kernels.

A :class:`Host` owns NICs and a :class:`Kernel`.  The kernel does IP
routing, fragmentation/reassembly, protocol demultiplexing, and charges
per-packet CPU time according to the host's :class:`HostProfile` — the
CPU model is what makes slow 486-era machines the bottleneck in the
Figure 4 reproduction, exactly as in the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .addressing import AddressSet, IPAddress, Network, as_address
from .fragmentation import Reassembler, fragment_packet
from .nic import NIC
from .packet import IPPacket, Protocol
from .simulator import Simulator
from .trace import trace


@dataclass(frozen=True)
class HostProfile:
    """CPU cost model for protocol processing on a host.

    Each packet handled (in or out) costs
    ``per_packet_cpu + per_byte_cpu * wire_size`` seconds of CPU; the
    CPU is a serial resource, so sustained packet rates beyond its
    capacity queue up and throttle throughput.
    """

    name: str
    per_packet_cpu: float
    per_byte_cpu: float


# Profiles loosely calibrated to the paper's testbed: two Pentium/120
# host servers, 486 client and redirector, 10 Mb/s links.  The absolute
# values were tuned so the clean-kernel ttcp curve lands in the paper's
# 0-600 kB/s band (see EXPERIMENTS.md).
I486 = HostProfile("i486", per_packet_cpu=120e-6, per_byte_cpu=0.9e-6)
PENTIUM_120 = HostProfile("pentium120", per_packet_cpu=60e-6, per_byte_cpu=0.45e-6)
MODERN = HostProfile("modern", per_packet_cpu=1e-6, per_byte_cpu=0.001e-6)
ZERO_COST = HostProfile("zero", per_packet_cpu=0.0, per_byte_cpu=0.0)

# A packet hook inspects (packet, nic) and returns True when it consumed
# the packet (normal processing then stops).  Redirectors are built on
# this.
PacketHook = Callable[[IPPacket, NIC], bool]


@dataclass
class Route:
    network: Network
    nic: NIC

    def __str__(self) -> str:
        return f"{self.network} dev {self.nic.name}"


class Kernel:
    """The protocol-processing core of a host."""

    def __init__(self, host: "Host"):
        self.host = host
        self.sim = host.sim
        self.routes: list[Route] = []
        self.protocol_handlers: dict[int, Callable[[IPPacket], None]] = {}
        #: Swept in order for every received packet.  A tuple, replaced
        #: on every (un)registration, so a sweep needs no defensive copy:
        #: a hook that (un)registers hooks mid-sweep rebinds the
        #: attribute and leaves the tuple being swept alone.
        self.packet_hooks: tuple[PacketHook, ...] = ()
        self.ip_forwarding = False
        # Extra per-packet CPU charged by modified (HydraNet) system
        # software; 0 for a clean kernel.
        self.software_overhead = 0.0
        # Addresses accepted in addition to NIC addresses — the virtual
        # host mechanism of HydraNet populates this.  AddressSet so the
        # per-packet ownership probes below run on plain ints.
        self.virtual_addresses: AddressSet = AddressSet()
        self.reassembler = Reassembler(self.sim)
        # NIC addresses, mirrored as a set so `owns_address` is two set
        # probes instead of a generator sweep (kept in sync by
        # `Host.add_interface`; NIC addresses never change afterwards).
        self._nic_addrs: AddressSet = AddressSet()
        # Flattened routing table [(mask, base, nic)] — longest-prefix
        # match on plain ints.  Rebuilt lazily: datacenter-scale
        # topologies install thousands of routes per router and sorting
        # after every insert would make topology construction O(n² log n).
        self._route_table: list[tuple[int, int, NIC]] = []
        self._routes_dirty = False
        # Exact-destination lookup cache.  Entries are validated against
        # nic.up at hit time and the whole cache drops on route changes,
        # so a cached answer is always what the full scan would return.
        self._route_cache: dict[int, NIC] = {}
        self._cpu_free_at = 0.0
        self.packets_forwarded = 0
        self.packets_delivered = 0
        self.packets_dropped = 0

    # -- CPU model ---------------------------------------------------

    def _charge_extra_fragments(self, n_extra: int) -> float:
        """Fragmentation costs per-fragment header processing beyond
        the per-packet charge already paid."""
        cost = (
            n_extra
            * (self.host.profile.per_packet_cpu + self.software_overhead)
            * self.host.cpu_multiplier
        )
        start = max(self.sim.now, self._cpu_free_at)
        self._cpu_free_at = start + cost
        return self._cpu_free_at - self.sim.now

    # -- routing -----------------------------------------------------

    def add_route(self, network: Network | str, nic: NIC) -> None:
        self.routes.append(Route(Network(network), nic))
        self._routes_dirty = True
        self._route_cache.clear()

    def add_default_route(self, nic: NIC) -> None:
        self.add_route(Network("0.0.0.0/0"), nic)

    def _rebuild_route_table(self) -> None:
        # Stable sort by descending prefix length: identical to sorting
        # after every insert, done once per batch of changes instead.
        self.routes.sort(key=lambda r: -r.network.prefix_len)
        self._route_table = [
            (r.network._mask, int(r.network.base), r.nic) for r in self.routes
        ]
        self._routes_dirty = False

    def route_lookup(self, dst: IPAddress) -> Optional[NIC]:
        value = dst._value if type(dst) is IPAddress else int(as_address(dst))
        hit = self._route_cache.get(value)
        if hit is not None and hit.up:
            return hit
        if self._routes_dirty:
            self._rebuild_route_table()
        for mask, base, nic in self._route_table:
            if value & mask == base and nic.up:
                self._route_cache[value] = nic
                return nic
        return None

    def owns_address(self, address: IPAddress) -> bool:
        if type(address) is not IPAddress:
            address = as_address(address)
        value = address._value
        return (
            value in self._nic_addrs.values
            or value in self.virtual_addresses.values
        )

    # -- hook and protocol registration -------------------------------

    def add_packet_hook(
        self, hook: PacketHook, after: Optional[PacketHook] = None
    ) -> None:
        """Register ``hook`` — right behind ``after`` when that hook is
        registered, else last."""
        hooks = self.packet_hooks
        at = hooks.index(after) + 1 if after in hooks else len(hooks)
        self.packet_hooks = (*hooks[:at], hook, *hooks[at:])

    def remove_packet_hook(self, hook: PacketHook) -> None:
        """Unregister ``hook`` (every registration of it)."""
        self.packet_hooks = tuple(h for h in self.packet_hooks if h != hook)

    def register_protocol(
        self, protocol: Protocol, handler: Callable[[IPPacket], None]
    ) -> None:
        self.protocol_handlers[int(protocol)] = handler

    # -- send path -----------------------------------------------------

    def send_ip(self, packet: IPPacket) -> None:
        """Send a locally generated packet (charges CPU, then routes)."""
        host = self.host
        if host.crashed:
            return
        profile = host.profile
        cost = (
            profile.per_packet_cpu
            + profile.per_byte_cpu * packet.wire_size
            + self.software_overhead
        ) * host.cpu_multiplier
        sim = self.sim
        now = sim._now
        free = self._cpu_free_at
        start = now if now >= free else free
        free = start + cost
        self._cpu_free_at = free
        sim.post(free - now, self._route_and_transmit, packet)

    def _route_and_transmit(self, packet: IPPacket) -> None:
        if self.host.crashed:
            return
        # Loopback / locally owned destination: deliver without a wire.
        # (Set probes inlined from owns_address: dst is always a real
        # IPAddress on this path.)
        value = packet.dst._value
        if value in self._nic_addrs.values or value in self.virtual_addresses.values:
            self.sim.post(0.0, self._deliver_local, packet)
            return
        self._transmit(packet)

    def _transmit(self, packet: IPPacket) -> bool:
        """Route ``packet`` and put it on the wire, fragmenting if the
        egress MTU demands it — the shared tail of the send and forward
        paths.  Returns False when the packet was dropped instead."""
        # Inlined route-cache hit (route_lookup validates the same way).
        nic = self._route_cache.get(packet.dst._value)
        if nic is None or not nic._up:
            nic = self.route_lookup(packet.dst)
            if nic is None:
                self.packets_dropped += 1
                trace(self.sim, self.host.name, "no-route", packet)
                return False
        if packet.wire_size <= nic.mtu:
            # It fits: cross the NIC without its frame.  Of NIC.send's
            # checks, up and MTU were just made; a tracer or an
            # unconnected NIC takes NIC.send itself.
            out = nic._out
            if out is not None and self.sim.tracer is None:
                nic.packets_out += 1
                out.transmit(packet)
            else:
                nic.send(packet)
            return True
        try:
            fragments = fragment_packet(packet, nic.mtu)
        except Exception:
            self.packets_dropped += 1
            trace(self.sim, self.host.name, "frag-fail", packet)
            return False
        delay = self._charge_extra_fragments(len(fragments) - 1)
        self.sim.schedule(delay, self._send_all, fragments, nic)
        return True

    def _send_all(self, fragments: list[IPPacket], nic: NIC) -> None:
        if self.host.crashed:
            return
        for frag in fragments:
            nic.send(frag)

    # -- receive path ---------------------------------------------------

    def receive_from_nic(self, packet: IPPacket, nic: NIC) -> None:
        # Same inlined CPU charge as send_ip.
        host = self.host
        if host.crashed:
            return
        profile = host.profile
        cost = (
            profile.per_packet_cpu
            + profile.per_byte_cpu * packet.wire_size
            + self.software_overhead
        ) * host.cpu_multiplier
        sim = self.sim
        now = sim._now
        free = self._cpu_free_at
        start = now if now >= free else free
        free = start + cost
        self._cpu_free_at = free
        sim.post(free - now, self._process, packet, nic)

    def _process(self, packet: IPPacket, nic: NIC) -> None:
        if self.host.crashed:
            return
        for hook in self.packet_hooks:
            if hook(packet, nic):
                return
        value = packet.dst._value
        if value in self._nic_addrs.values or value in self.virtual_addresses.values:
            self._deliver_local(packet)
        elif self.ip_forwarding:
            self._forward(packet)
        else:
            self.packets_dropped += 1
            trace(self.sim, self.host.name, "not-mine", packet)

    def _deliver_local(self, packet: IPPacket) -> None:
        if packet.more_fragments or packet.frag_offset:  # is_fragment inline
            whole = self.reassembler.push(packet)
            if whole is None:
                return
            packet = whole
        # IntEnum and int hash/compare identically, so Protocol members
        # hit the int-keyed table without a per-packet int() call.
        handler = self.protocol_handlers.get(packet.protocol)
        if handler is None:
            self.packets_dropped += 1
            trace(self.sim, self.host.name, "proto-unreach", packet)
            return
        self.packets_delivered += 1
        handler(packet)

    def _forward(self, packet: IPPacket) -> None:
        if packet.ttl <= 1:
            self.packets_dropped += 1
            trace(self.sim, self.host.name, "ttl-expired", packet)
            return
        packet.ttl -= 1
        if self._transmit(packet):
            self.packets_forwarded += 1


class Host:
    """A simulated machine: NICs, a kernel, and attached protocol stacks.

    Protocol stacks (UDP, TCP) and applications attach themselves via
    their own constructors; the host only provides the substrate.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: HostProfile = MODERN,
    ):
        self.sim = sim
        self.name = name
        self.profile = profile
        self.interfaces: list[NIC] = []
        self.kernel = Kernel(self)
        self.crashed = False
        # Gray-failure knob: scales every CPU charge on this host.  1.0
        # is bitwise-identity on the float math, so an untouched host
        # behaves exactly as before the knob existed.
        self.cpu_multiplier = 1.0

    def add_interface(
        self,
        ip: IPAddress | str,
        network: Network | str,
        mtu: int = 1500,
    ) -> NIC:
        nic = NIC(self, as_address(ip), Network(network), mtu=mtu)
        self.interfaces.append(nic)
        self.kernel._nic_addrs.add(nic.ip)
        self.kernel.add_route(nic.network, nic)
        return nic

    @property
    def ip(self) -> IPAddress:
        """Primary address (first interface) — convenience for tests."""
        if not self.interfaces:
            raise RuntimeError(f"{self.name} has no interfaces")
        return self.interfaces[0].ip

    def crash(self) -> None:
        """Fail-stop: the host stops sending and receiving instantly."""
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): dispose the attached node and let go
        of it, the kernel and the interfaces; all point back here."""
        node = self.__dict__.pop("_node", None)
        if node is not None:
            node.dispose()
        for nic in self.interfaces:
            # nic -> channel -> peer nic -> ... -> nic; kernel -> route -> nic -> kernel
            nic._out = nic._kernel = None
        self.interfaces, self.kernel = [], None

    def __repr__(self) -> str:
        ips = ",".join(str(nic.ip) for nic in self.interfaces)
        return f"<Host {self.name} [{ips}]>"
