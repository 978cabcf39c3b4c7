"""Declarative topology specifications (DESIGN.md §13).

A :class:`TopologySpec` is plain data: hosts, links, the redirector
mesh (peer and parent relations), service placements, and external
networks.  It has a canonical JSON form and a sha256 fingerprint over
it, so a spec generated inline and one generated in a pool worker can
be proven bit-identical — the property every ``--jobs`` equality gate
in this repository rests on.

Specs are *validated*, not trusted: :meth:`TopologySpec.validate`
checks structural well-formedness (no orphan hosts, link endpoints
exist, mesh relations name redirectors, placements name servers) before
:func:`repro.topo.build.compile_spec` turns the spec into a live
simulation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

SPEC_VERSION = 1

ROLES = ("client", "server", "redirector")


@dataclass(frozen=True)
class HostSpec:
    """One machine: a name, what it does, and how fast it is."""

    name: str
    role: str  # one of ROLES
    profile: str = "modern"
    #: Mesh tier for redirectors (0 = edge); informational elsewhere.
    tier: int = 0


@dataclass(frozen=True)
class LinkSpec:
    """One duplex point-to-point link."""

    a: str
    b: str
    bandwidth_bps: float = 100_000_000.0
    latency: float = 0.0002
    loss_rate: float = 0.0
    queue_capacity: int = 64


@dataclass(frozen=True)
class ServicePlacement:
    """One replicated service: where its replicas live and which
    redirector owns its chain layout (the *authority*)."""

    service_ip: str
    port: int
    primary: str
    backups: tuple = ()
    authority: str = ""
    fault_tolerant: bool = True

    @property
    def replicas(self) -> tuple:
        return (self.primary, *self.backups)


@dataclass
class TopologySpec:
    """A complete, declarative description of one deployment."""

    name: str
    kind: str  # generator family: fat_tree | hub_and_spoke | hierarchical
    seed: int = 0
    params: dict = field(default_factory=dict)
    hosts: tuple = ()  # tuple[HostSpec]
    links: tuple = ()  # tuple[LinkSpec]
    #: Symmetric redirector-mesh adjacencies *beyond* the parent links
    #: (a parent is always also a peer — see RedirectorDaemon.set_parent).
    peers: tuple = ()  # tuple[(name, name)]
    #: Directed (child, parent) relations for hierarchical aggregation.
    parents: tuple = ()  # tuple[(child, parent)]
    services: tuple = ()  # tuple[ServicePlacement]
    #: Address blocks outside the topology, routed toward a named host
    #: (where a redirector intercepts them).
    external: tuple = ()  # tuple[(network, via)]
    version: int = SPEC_VERSION

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "params": dict(self.params),
            "hosts": [asdict(h) for h in self.hosts],
            "links": [asdict(l) for l in self.links],
            "peers": [list(p) for p in self.peers],
            "parents": [list(p) for p in self.parents],
            "services": [
                {**asdict(s), "backups": list(s.backups)} for s in self.services
            ],
            "external": [list(e) for e in self.external],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """Canonical content hash: equal specs hash equal regardless of
        how they were produced."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -- structure helpers ------------------------------------------------

    def hosts_by_role(self, role: str) -> list:
        return [h for h in self.hosts if h.role == role]

    @property
    def redirectors(self) -> list:
        return self.hosts_by_role("redirector")

    @property
    def tiers(self) -> int:
        """Number of distinct redirector tiers in the mesh."""
        return len({h.tier for h in self.redirectors})

    def neighbors(self, name: str) -> list:
        """Hosts one physical link away from ``name``."""
        out = []
        for link in self.links:
            if link.a == name:
                out.append(link.b)
            elif link.b == name:
                out.append(link.a)
        return out

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """Structural well-formedness; returns human-readable problems
        (empty = valid)."""
        problems: list[str] = []
        names = [h.name for h in self.hosts]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            problems.append(f"duplicate host names: {dupes}")
        by_name = {h.name: h for h in self.hosts}
        for h in self.hosts:
            if h.role not in ROLES:
                problems.append(f"host {h.name!r}: unknown role {h.role!r}")
        linked: set[str] = set()
        for link in self.links:
            for end in (link.a, link.b):
                if end not in by_name:
                    problems.append(f"link {link.a}<->{link.b}: unknown host {end!r}")
                linked.add(end)
        for h in self.hosts:
            if h.name not in linked:
                problems.append(f"orphan host (no links): {h.name!r}")
        redirector_names = {h.name for h in self.redirectors}
        for a, b in self.peers:
            for end in (a, b):
                if end not in redirector_names:
                    problems.append(f"mesh peer {a}<->{b}: {end!r} is not a redirector")
        seen_children = set()
        for child, parent in self.parents:
            for end in (child, parent):
                if end not in redirector_names:
                    problems.append(
                        f"mesh parent {child}->{parent}: {end!r} is not a redirector"
                    )
            if child in seen_children:
                problems.append(f"redirector {child!r} has multiple parents")
            seen_children.add(child)
            if child == parent:
                problems.append(f"redirector {child!r} is its own parent")
        server_names = {h.name for h in self.hosts_by_role("server")}
        seen_points = set()
        for svc in self.services:
            point = (svc.service_ip, svc.port)
            if point in seen_points:
                problems.append(f"duplicate service point {svc.service_ip}:{svc.port}")
            seen_points.add(point)
            for replica in svc.replicas:
                if replica not in server_names:
                    problems.append(
                        f"service {svc.service_ip}:{svc.port}: replica "
                        f"{replica!r} is not a server"
                    )
            if len(set(svc.replicas)) != len(svc.replicas):
                problems.append(
                    f"service {svc.service_ip}:{svc.port}: duplicate replicas"
                )
            if svc.authority and svc.authority not in redirector_names:
                problems.append(
                    f"service {svc.service_ip}:{svc.port}: authority "
                    f"{svc.authority!r} is not a redirector"
                )
        for _network, via in self.external:
            if via not in by_name:
                problems.append(f"external network via unknown host {via!r}")
        if not problems:
            problems.extend(self._check_mesh_connected())
        return problems

    def _check_mesh_connected(self) -> list[str]:
        """Every redirector must reach every other over the mesh graph
        (peers ∪ parent links), or a table sync flood cannot cover the
        mesh and some edge would never learn a service."""
        redirectors = [h.name for h in self.redirectors]
        if len(redirectors) <= 1:
            return []
        adj: dict[str, set[str]] = {r: set() for r in redirectors}
        for a, b in self.peers:
            adj[a].add(b)
            adj[b].add(a)
        for child, parent in self.parents:
            adj[child].add(parent)
            adj[parent].add(child)
        seen = {redirectors[0]}
        stack = [redirectors[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        unreachable = sorted(set(redirectors) - seen)
        if unreachable:
            return [f"redirector mesh is disconnected; unreachable: {unreachable}"]
        return []

    def check(self) -> "TopologySpec":
        problems = self.validate()
        if problems:
            raise ValueError(
                "invalid topology spec:\n" + "\n".join(f"  - {p}" for p in problems)
            )
        return self


def spec_summary(spec: TopologySpec) -> str:
    """One-line operator summary."""
    return (
        f"{spec.name}: {len(spec.hosts)} hosts "
        f"({len(spec.redirectors)} redirectors over {spec.tiers} tiers, "
        f"{len(spec.hosts_by_role('server'))} servers, "
        f"{len(spec.hosts_by_role('client'))} clients), "
        f"{len(spec.links)} links, {len(spec.services)} services "
        f"[{spec.fingerprint()[:12]}]"
    )
