"""Management daemons for redirectors and host servers (paper §4.4).

The redirector daemon owns the redirector table and the acknowledgement-
channel chain layout; host-server daemons register/unregister replicas,
report failures, and apply chain updates to the local ft-TCP machinery
via callbacks (wired up by :mod:`repro.core.service`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.simulator import Simulator
from repro.replication import strategy_layout

from .host_server import HostServer
from repro.metrics.fencing import FencingMetrics

from .mgmt import (
    ARBITRATION_RETRY,
    ChainSplice,
    ChainUpdate,
    Demote,
    FailureReport,
    JOIN_RETRY,
    JoinReady,
    JoinRequest,
    MGMT_PORT,
    MgmtMessage,
    Ping,
    Pong,
    PromotionGrant,
    PromotionRequest,
    Register,
    ReliableUdp,
    StateSnapshot,
    Unregister,
)
from .redirector import Redirector, ServiceKey


@dataclass
class Shutdown(MgmtMessage):
    """Redirector → replica: you have been removed from the set; stop
    serving (fail-stop enforcement for spuriously unavailable servers)."""

    service_ip: IPAddress
    port: int


@dataclass
class TableSync(MgmtMessage):
    """Authority redirector → the redirector mesh: the authoritative
    replica list for a service.  Multiple redirectors can forward
    traffic for a service (Figure 1 shows each client population behind
    its own), but exactly one — the one the replicas register with —
    owns the chain layout and reconfiguration.  It stamps every push
    with ``(epoch, seq)`` and floods it to its mesh neighbors; each
    neighbor applies a *fresh* stamp, re-floods it onward, and drops
    stale or duplicate stamps — so a registration or fail-over at one
    edge becomes routable mesh-wide without any redirector needing a
    full peer list, and flooding terminates even on cyclic meshes
    (DESIGN.md §13)."""

    service_ip: IPAddress
    port: int
    fault_tolerant: bool
    replicas: tuple = ()
    #: Current view epoch, so peer redirectors fence identically.
    epoch: int = 0
    #: Monotonic per-service push counter at the authority.  ``(epoch,
    #: seq)`` orders syncs that race through different mesh paths; a
    #: receiver ignores any stamp not newer than what it has applied.
    seq: int = 0
    #: Address of the authority redirector — every redirector in the
    #: mesh learns where failure evidence for the service must travel.
    authority_ip: Optional[IPAddress] = None


@dataclass
class FailureSummary(MgmtMessage):
    """Redirector → redirector: aggregated failure evidence travelling
    up the mesh tiers toward a service's authority (FTN-style
    hierarchical failure reporting, DESIGN.md §13).

    A non-authority redirector receiving :class:`FailureReport` from
    its local host servers batches them over an aggregation window and
    forwards one summary — suspect union, report count — to the
    service's authority if it knows it, else to its mesh parent, which
    aggregates again.  ``hops`` caps the climb on misconfigured
    meshes."""

    service_ip: IPAddress
    port: int
    reporter_ip: IPAddress
    suspects: tuple = ()
    reports: int = 1
    hops: int = 0


@dataclass
class _Reconfiguration:
    key: ServiceKey
    nonce: int
    candidates: list[IPAddress]
    responded: set[IPAddress] = field(default_factory=set)


class RedirectorDaemon:
    """Runs on a redirector; owns its table and the replica chains."""

    def __init__(
        self,
        redirector: Redirector,
        ping_timeout: float = 0.75,
        congestion_report_threshold: int = 3,
        congestion_report_window: float = 10.0,
    ):
        from repro.sockets.api import node_for

        self.redirector = redirector
        self.sim: Simulator = redirector.sim
        self.node = node_for(redirector)
        self.ping_timeout = ping_timeout
        self.congestion_report_threshold = congestion_report_threshold
        self.congestion_report_window = congestion_report_window
        sock = self.node.udp_socket()
        sock.bind(MGMT_PORT)
        self.channel = ReliableUdp(self.sim, sock, self._on_message)
        self._nonce = 0
        self._reconfigs: dict[ServiceKey, _Reconfiguration] = {}
        #: Mesh neighbors: redirectors one hop away in the redirector
        #: mesh.  Table syncs flood over these links (stamp-gated);
        #: a flat peer list (the pre-mesh configuration) is simply a
        #: star-shaped mesh.
        self.peers: list[IPAddress] = []
        #: Mesh parent (next tier up) for hierarchical failure-report
        #: aggregation; None at the root or in flat deployments.
        self.parent: Optional[IPAddress] = None
        #: Informational tier index (0 = edge) for operator output.
        self.tier: int = 0
        #: Newest (epoch, seq) stamp applied or originated per service.
        self._sync_stamp: dict[ServiceKey, tuple[int, int]] = {}
        #: Authority redirector per service, learned from TableSync
        #: (or ourselves, for services registered here).
        self._authority: dict[ServiceKey, IPAddress] = {}
        #: Failure evidence being aggregated: key -> [suspect set, count].
        self._agg: dict[ServiceKey, list] = {}
        self.aggregation_window = 0.25
        self.max_summary_hops = 8
        self.table_syncs_forwarded = 0
        self.stale_syncs_dropped = 0
        self.failure_summaries_sent = 0
        self.failure_summaries_received = 0
        # Unacknowledged Shutdown messages per (service key, replica):
        # withdrawn if the replica re-registers before delivery (a
        # recovered server must not be killed by a stale shutdown).
        self._pending_shutdowns: dict[tuple, int] = {}
        # (service, suspect) -> [report times] for the congestion rule.
        self._report_history: dict[tuple[ServiceKey, IPAddress], list[float]] = {}
        self.reconfigurations = 0
        self.failovers = 0
        # -- view/epoch fencing state (DESIGN.md §9) ----------------------
        self.fencing = FencingMetrics()
        #: Last observed primary per service, to detect view changes.
        self._last_primary: dict[ServiceKey, IPAddress] = {}
        #: (service key, epoch) -> the primary that owned that epoch;
        #: lets the fence name the replica behind a stale segment.
        self._epoch_owners: dict[tuple[ServiceKey, int], IPAddress] = {}
        #: Last (epoch, grantee) per service — at most one grant per epoch.
        self._granted: dict[ServiceKey, tuple[int, IPAddress]] = {}
        #: Monotonic sequence for chain-update pushes (the reliable mgmt
        #: layer is unordered; replicas discard stale layouts by it).
        self._chain_seq: dict[ServiceKey, int] = {}
        #: Replication backend per service (DESIGN.md §15), learned
        #: from Register — decides the layout pushed to replicas
        #: (linear daisy chain vs star around the primary).
        self._strategy: dict[ServiceKey, str] = {}
        #: Demote rate limiting per (service key, target).
        self._last_demote: dict[tuple[ServiceKey, IPAddress], float] = {}
        self.demote_min_interval = 1.0
        self.promotions_granted = 0
        self.promotions_refused = 0
        redirector.on_fenced = self._on_fenced
        #: Wired by the recovery manager (EXTENSION, DESIGN.md §8):
        #: observe membership changes / failure reports / join
        #: completions without owning the reconfiguration machinery.
        self.on_membership_change: Optional[Callable[[ServiceKey], None]] = None
        self.on_failure_report: Optional[Callable[[FailureReport], None]] = None
        self.on_join_ready: Optional[Callable[[JoinReady], None]] = None

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): channel; the redirector's fence hook."""
        self.channel.dispose()
        self.redirector.on_fenced = None

    # -- message handling ------------------------------------------------

    def add_peer(self, peer_ip) -> None:
        """Register a mesh neighbor to keep synchronized (flood-wise)."""
        peer = as_address(peer_ip)
        if peer not in self.peers:
            self.peers.append(peer)

    def set_parent(self, parent_ip, tier: int = 0) -> None:
        """Name this redirector's next tier up in the mesh hierarchy
        (failure summaries climb toward it); also adds it as a
        neighbor so table syncs flow both ways."""
        self.parent = as_address(parent_ip)
        self.tier = tier
        self.add_peer(self.parent)

    def _on_message(self, message: MgmtMessage, src_ip: IPAddress, src_port: int) -> None:
        if isinstance(message, Register):
            self._handle_register(message)
        elif isinstance(message, Unregister):
            self._handle_unregister(message)
        elif isinstance(message, FailureReport):
            self._handle_failure_report(message)
        elif isinstance(message, Pong):
            self._handle_pong(message, src_ip)
        elif isinstance(message, TableSync):
            self._handle_table_sync(message, src_ip)
        elif isinstance(message, FailureSummary):
            self._handle_failure_summary(message)
        elif isinstance(message, PromotionRequest):
            self._handle_promotion_request(message)
        elif isinstance(message, JoinReady):
            if self.on_join_ready is not None:
                self.on_join_ready(message)

    def _handle_register(self, msg: Register) -> None:
        # A re-registering replica withdraws any stale Shutdown still
        # being retried toward it.
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        # Replicas register here: this redirector is the service's
        # authority (owns its chain layout and reconfiguration).
        self._authority[key] = self.redirector.ip
        stale = self._pending_shutdowns.pop((key, as_address(msg.server_ip)), None)
        if stale is not None:
            self.channel.cancel(stale)
        if msg.mode == "scaling":
            self.redirector.install_scaling(msg.service_ip, msg.port, msg.server_ip)
            self._sync_peers(ServiceKey(as_address(msg.service_ip), msg.port))
            return
        if msg.mode == "primary":
            self.redirector.install_ft_primary(msg.service_ip, msg.port, msg.server_ip)
        elif msg.mode == "backup":
            self.redirector.install_ft_backup(msg.service_ip, msg.port, msg.server_ip)
        else:
            return
        self._strategy[key] = msg.strategy
        self._push_chain_updates(ServiceKey(as_address(msg.service_ip), msg.port))

    def _handle_unregister(self, msg: Unregister) -> None:
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        entry = self.redirector.entry_for(msg.service_ip, msg.port)
        was_ft = entry.fault_tolerant if entry else False
        self.redirector.remove_replica(msg.service_ip, msg.port, msg.server_ip)
        if was_ft:
            self._push_chain_updates(key)
        else:
            self._sync_peers(key)

    def _handle_table_sync(self, msg: TableSync, src_ip: IPAddress) -> None:
        """Apply the authority's replica list verbatim (peer role) and
        re-flood fresh stamps to the rest of the mesh.

        The reliable mgmt layer retransmits and the mesh floods over
        multiple paths, so syncs arrive duplicated and out of order; a
        stamp not newer than the newest applied is *stale* and must be
        ignored — applying it would resurrect a replica list (or an
        epoch) that a fail-over already moved past."""
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        stamp = (msg.epoch, msg.seq)
        if stamp <= self._sync_stamp.get(key, (-1, -1)):
            self.stale_syncs_dropped += 1
            return
        self._sync_stamp[key] = stamp
        if msg.authority_ip is not None:
            self._authority[key] = as_address(msg.authority_ip)
        if not msg.replicas:
            self.redirector.remove_service(key.ip, key.port)
        else:
            entry = self.redirector.table.get(key)
            if entry is None:
                from .redirector import RedirectionEntry

                entry = RedirectionEntry(key)
                self.redirector.table[key] = entry
            entry.fault_tolerant = msg.fault_tolerant
            entry.replicas = [as_address(r) for r in msg.replicas]
            entry.epoch = max(entry.epoch, msg.epoch)
        self._flood_sync(msg, exclude=src_ip)

    def _flood_sync(self, msg: TableSync, exclude: Optional[IPAddress] = None) -> None:
        """Forward a sync to every mesh neighbor except the one it
        came from.  Stamp gating at the receivers terminates the flood
        (a stamp seen once is stale forever after)."""
        for peer in self.peers:
            if exclude is not None and peer == exclude:
                continue
            self.table_syncs_forwarded += 1
            self.channel.send(
                TableSync(
                    service_ip=msg.service_ip,
                    port=msg.port,
                    fault_tolerant=msg.fault_tolerant,
                    replicas=msg.replicas,
                    epoch=msg.epoch,
                    seq=msg.seq,
                    authority_ip=msg.authority_ip,
                ),
                peer,
            )

    def _next_seq(self, key: ServiceKey) -> int:
        seq = self._chain_seq.get(key, 0) + 1
        self._chain_seq[key] = seq
        return seq

    def _sync_peers(self, key: ServiceKey, seq: Optional[int] = None) -> None:
        """Originate a stamped sync for a service this redirector is
        the authority of (``seq=None`` allocates the next stamp —
        scaling services and deletions have no chain push to share a
        stamp with)."""
        entry = self.redirector.table.get(key)
        # The stamp's epoch may never regress at the origin, or a
        # deletion (entry gone, epoch unknown) would sort as stale at
        # the peers; the originated stamp floor keeps it monotone.
        last_epoch, _last_seq = self._sync_stamp.get(key, (0, 0))
        epoch = max(entry.epoch if entry else 0, last_epoch)
        if seq is None:
            seq = self._next_seq(key)
        self._sync_stamp[key] = (epoch, seq)
        if not self.peers:
            return
        sync = TableSync(
            service_ip=key.ip,
            port=key.port,
            fault_tolerant=entry.fault_tolerant if entry else False,
            replicas=tuple(entry.replicas) if entry else (),
            epoch=epoch,
            seq=seq,
            authority_ip=self.redirector.ip,
        )
        self._flood_sync(sync)

    def _is_authority(self, key: ServiceKey) -> bool:
        """Whether this redirector owns the service's reconfiguration.
        Unknown authority (pre-mesh deployments) defaults to yes — the
        legacy single-redirector behaviour."""
        authority = self._authority.get(key)
        return authority is None or authority == self.redirector.ip

    def _handle_failure_report(self, msg: FailureReport) -> None:
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        entry = self.redirector.table.get(key)
        if entry is None or not entry.fault_tolerant:
            return
        if not self._is_authority(key):
            # Edge role: we merely host replicas (or forward traffic)
            # for a service owned elsewhere.  Batch local evidence and
            # let it climb the hierarchy as one summary.
            self._aggregate_failure(
                key, tuple(as_address(s) for s in msg.suspects), reports=1
            )
            return
        reporter = as_address(msg.reporter_ip)
        if reporter not in entry.replicas:
            # A report from outside the replica set is a zombie of an
            # old view (e.g. a fenced ex-primary whose queued reports
            # surface after a partition heals).  Acting on it could
            # remove the *real* primary — never do; fail-stop the
            # sender instead if its view is provably stale.
            self.fencing.record_near_miss()
            self._send_demote(key, reporter, entry.epoch)
            return
        if self.on_failure_report is not None:
            self.on_failure_report(msg)
        # Congestion rule: a suspect that stays "alive" but keeps being
        # reported gets shut down anyway (fail-stop for spurious
        # unavailability, paper §1/§4.4).
        now = self.sim.now
        for suspect in msg.suspects:
            suspect = as_address(suspect)
            history = self._report_history.setdefault((key, suspect), [])
            history.append(now)
            history[:] = [t for t in history if now - t <= self.congestion_report_window]
            if (
                len(history) >= self.congestion_report_threshold
                and suspect in entry.replicas
            ):
                self._remove_and_rechain(key, {suspect})
                return
        if key in self._reconfigs:
            return  # probe already in flight
        self._start_probe(key)

    def _aggregate_failure(
        self, key: ServiceKey, suspects: tuple, reports: int, hops: int = 0
    ) -> None:
        """Batch failure evidence for a service owned elsewhere; the
        first piece of evidence arms a flush timer, later pieces merge
        into the pending batch (suspect union, report sum)."""
        agg = self._agg.get(key)
        if agg is None:
            self._agg[key] = [set(suspects), reports, hops]
            self.sim.schedule(self.aggregation_window, self._flush_summary, key)
            return
        agg[0].update(suspects)
        agg[1] += reports
        agg[2] = max(agg[2], hops)

    def _flush_summary(self, key: ServiceKey) -> None:
        agg = self._agg.pop(key, None)
        if agg is None:
            return
        suspects, reports, hops = agg
        if hops >= self.max_summary_hops:
            return  # misconfigured mesh (cycle / no authority): stop climbing
        authority = self._authority.get(key)
        if authority is not None and authority != self.redirector.ip:
            target = authority
        else:
            target = self.parent
        if target is None:
            return
        self.failure_summaries_sent += 1
        self.channel.send(
            FailureSummary(
                service_ip=key.ip,
                port=key.port,
                reporter_ip=self.redirector.ip,
                suspects=tuple(sorted(suspects, key=int)),
                reports=reports,
                hops=hops + 1,
            ),
            target,
        )

    def _handle_failure_summary(self, msg: FailureSummary) -> None:
        self.failure_summaries_received += 1
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        entry = self.redirector.table.get(key)
        if entry is None or not entry.fault_tolerant:
            return
        if not self._is_authority(key):
            # Mid-tier: merge and keep climbing toward the authority.
            self._aggregate_failure(
                key,
                tuple(as_address(s) for s in msg.suspects),
                reports=msg.reports,
                hops=msg.hops,
            )
            return
        # Authority: a summary stands in for the individual reports it
        # aggregates — feed the congestion rule (capped at threshold so
        # one summary cannot manufacture more evidence than the rule
        # needs) and verify liveness by probing, exactly as for a
        # directly received report.
        now = self.sim.now
        for suspect in msg.suspects:
            suspect = as_address(suspect)
            if suspect not in entry.replicas:
                continue
            history = self._report_history.setdefault((key, suspect), [])
            history.extend(
                [now] * min(msg.reports, self.congestion_report_threshold)
            )
            history[:] = [
                t for t in history if now - t <= self.congestion_report_window
            ]
            if len(history) >= self.congestion_report_threshold:
                self._remove_and_rechain(key, {suspect})
                return
        if key not in self._reconfigs:
            self._start_probe(key)

    def _start_probe(self, key: ServiceKey) -> None:
        entry = self.redirector.table.get(key)
        if entry is None:
            return
        self._nonce += 1
        reconfig = _Reconfiguration(key, self._nonce, list(entry.replicas))
        self._reconfigs[key] = reconfig
        for replica in reconfig.candidates:
            self.channel.send_unreliable(Ping(nonce=reconfig.nonce), replica)
        # Probes are single unreliable datagrams: under a queue-overflow
        # burst one lost ping (or pong) would read as replica death.
        # Re-ping the non-responders midway through the window — a
        # fail-stopped host stays silent through every retry, so clean
        # fail-stop detection concludes at the same deadline as before.
        self.sim.schedule(self.ping_timeout / 3, self._reping, key, reconfig)
        self.sim.schedule(2 * self.ping_timeout / 3, self._reping, key, reconfig)
        self.sim.schedule(self.ping_timeout, self._finish_probe, key, reconfig)

    def _reping(self, key: ServiceKey, reconfig: "_Reconfiguration") -> None:
        if self._reconfigs.get(key) is not reconfig:
            return
        for replica in reconfig.candidates:
            if replica not in reconfig.responded:
                self.channel.send_unreliable(Ping(nonce=reconfig.nonce), replica)

    def _handle_pong(self, msg: Pong, src_ip: IPAddress) -> None:
        for reconfig in self._reconfigs.values():
            if reconfig.nonce == msg.nonce:
                reconfig.responded.add(src_ip)

    def _finish_probe(self, key: ServiceKey, reconfig: _Reconfiguration) -> None:
        if self._reconfigs.get(key) is not reconfig:
            return
        del self._reconfigs[key]
        dead = {r for r in reconfig.candidates if r not in reconfig.responded}
        if dead:
            self._remove_and_rechain(key, dead)

    def _remove_and_rechain(self, key: ServiceKey, removed: set[IPAddress]) -> None:
        entry = self.redirector.table.get(key)
        if entry is None:
            return
        old_primary = entry.primary
        for replica in removed:
            if replica in entry.replicas:
                self.redirector.remove_replica(key.ip, key.port, replica)
                shutdown = Shutdown(key.ip, key.port)
                self._pending_shutdowns[(key, replica)] = shutdown.msg_id
                self.channel.send(shutdown, replica)
        self.reconfigurations += 1
        entry = self.redirector.table.get(key)
        if entry is None:
            self._sync_peers(key)  # the whole service went away
            return
        if entry.primary != old_primary:
            self.failovers += 1
        self._push_chain_updates(key)

    # -- chain layout -------------------------------------------------------

    def _advance_epoch(self, key: ServiceKey) -> None:
        """Bump the service epoch whenever the primary changes (the
        epoch is a view number over *who leads*, not over membership:
        backup churn does not invalidate the primary's output)."""
        entry = self.redirector.table.get(key)
        if entry is None or not entry.fault_tolerant:
            return
        primary = entry.primary
        if primary is None:
            return
        last = self._last_primary.get(key)
        if last is None:
            # Initial view: epoch 0 belongs to the first primary.
            self._epoch_owners[(key, entry.epoch)] = primary
            self.fencing.record_epoch(
                self.sim.now, key, entry.epoch, primary, "provision"
            )
        elif primary != last:
            entry.epoch += 1
            self._epoch_owners[(key, entry.epoch)] = primary
            self.fencing.record_epoch(
                self.sim.now, key, entry.epoch, primary, "failover"
            )
        self._last_primary[key] = primary

    def _push_chain_updates(self, key: ServiceKey) -> None:
        self._advance_epoch(key)
        # One (epoch, seq) stamp orders this layout both toward the
        # replicas (ChainUpdate) and across the mesh (TableSync).
        seq = self._next_seq(key)
        self._sync_peers(key, seq=seq)
        entry = self.redirector.table.get(key)
        if self.on_membership_change is not None:
            self.on_membership_change(key)
        if entry is None or not entry.fault_tolerant:
            return
        replicas = entry.replicas
        star = strategy_layout(self._strategy.get(key, "chain")) == "star"
        members = tuple(replicas)
        for i, replica in enumerate(replicas):
            if star:
                # Star layout (broadcast/checkpoint backends): every
                # backup hangs directly off the primary — it reports
                # there and gates on nobody; only the primary gates
                # (on the whole member set).
                predecessor = replicas[0] if i > 0 else None
                has_successor = i == 0 and len(replicas) > 1
            else:
                predecessor = replicas[i - 1] if i > 0 else None
                has_successor = i < len(replicas) - 1
            update = ChainUpdate(
                service_ip=key.ip,
                port=key.port,
                predecessor_ip=predecessor,
                has_successor=has_successor,
                is_primary=i == 0,
                epoch=entry.epoch,
                seq=seq,
                members=members,
            )
            self.channel.send(update, replica)

    # -- promotion arbitration and fencing (DESIGN.md §9) -------------------

    def _handle_promotion_request(self, msg: PromotionRequest) -> None:
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        requester = as_address(msg.requester_ip)
        entry = self.redirector.table.get(key)
        self.fencing.promotion_requests += 1
        if entry is None or not entry.fault_tolerant:
            return
        if requester not in entry.replicas:
            # A bid from outside the replica set: a zombie of an old
            # view trying to (re-)enter primary mode.
            self._refuse_promotion(key, requester, entry.epoch)
            return
        if requester == entry.primary:
            granted_epoch, grantee = self._granted.get(key, (-1, None))
            if entry.epoch > granted_epoch:
                self._granted[key] = (entry.epoch, requester)
                self.promotions_granted += 1
                self.fencing.promotion_grants += 1
            elif grantee != requester:
                # At most one grant per epoch; a second bidder loses.
                self._refuse_promotion(key, requester, entry.epoch)
                return
            self.channel.send(
                PromotionGrant(key.ip, key.port, requester, entry.epoch),
                requester,
                policy=ARBITRATION_RETRY,
            )
            return
        # A backup bidding while the table still names another primary:
        # treat the bid as suspicion of that primary and verify it.
        if key not in self._reconfigs:
            self._start_probe(key)

    def _refuse_promotion(self, key: ServiceKey, target: IPAddress, epoch: int) -> None:
        self.promotions_refused += 1
        self.fencing.promotion_refusals += 1
        self.fencing.record_near_miss()
        self._send_demote(key, target, epoch)

    def _on_fenced(self, stale_epoch: int, entry) -> None:
        """A client-bound segment stamped with a stale epoch was dropped
        by the redirector's fence: tell its owner to stand down."""
        key = entry.key
        self.fencing.record_fenced(key, stale_epoch)
        owner = self._epoch_owners.get((key, stale_epoch))
        if owner is not None and owner not in entry.replicas:
            self._send_demote(key, owner, entry.epoch)

    def _send_demote(self, key: ServiceKey, target: IPAddress, epoch: int) -> None:
        """Order a stale replica to stand down (rate-limited; the
        receiver acts only when ``epoch`` is ahead of its own view, so
        a Demote can never kill the granted primary of the epoch)."""
        now = self.sim.now
        last = self._last_demote.get((key, target))
        if last is not None and now - last < self.demote_min_interval:
            return
        self._last_demote[(key, target)] = now
        self.fencing.demotes_sent += 1
        self.channel.send(
            Demote(key.ip, key.port, epoch), target, policy=ARBITRATION_RETRY
        )

    # -- live join (recovery subsystem, EXTENSION) --------------------------

    def splice_backup(self, service_ip, port: int, joiner_ip, conn_keys=()) -> bool:
        """Second phase of the two-phase cut-over: atomically extend
        the chain with a caught-up joiner as the new last backup.

        Installs the joiner in the redirector table (the multicast set),
        re-chains everyone, and sends :class:`ChainSplice` to the old
        tail and the joiner so the per-connection gates cut over."""
        key = ServiceKey(as_address(service_ip), port)
        joiner_ip = as_address(joiner_ip)
        entry = self.redirector.table.get(key)
        if entry is None or not entry.fault_tolerant or not entry.replicas:
            return False
        if joiner_ip in entry.replicas:
            return False
        if strategy_layout(self._strategy.get(key, "chain")) == "star":
            # Star layout: the joiner reports to (and is gated by) the
            # primary, not the old tail.
            predecessor = entry.replicas[0]
        else:
            predecessor = entry.replicas[-1]
        # A recovered server re-joining must not be killed by a stale
        # Shutdown still being retried toward it.
        stale = self._pending_shutdowns.pop((key, joiner_ip), None)
        if stale is not None:
            self.channel.cancel(stale)
        self.redirector.install_ft_backup(key.ip, key.port, joiner_ip)
        self._push_chain_updates(key)
        splice = dict(
            service_ip=key.ip,
            port=key.port,
            predecessor_ip=predecessor,
            joiner_ip=joiner_ip,
            conn_keys=tuple(conn_keys),
        )
        self.channel.send(ChainSplice(**splice), predecessor)
        self.channel.send(ChainSplice(**splice), joiner_ip)
        return True


class HostServerDaemon:
    """Runs on a host server; registers replicas and reports failures."""

    def __init__(self, host_server: HostServer, redirector_ip, report_ip=None):
        self.host_server = host_server
        self.sim = host_server.sim
        self.redirector_ip = as_address(redirector_ip)
        #: Where failure evidence goes.  In a mesh this is the *local*
        #: edge redirector (which aggregates and forwards summaries up
        #: the hierarchy); registration and promotion traffic always
        #: goes to the service's authority redirector.
        self.report_ip = (
            as_address(report_ip) if report_ip is not None else self.redirector_ip
        )
        #: Per-service authority override — mesh placements whose chain
        #: is owned by a redirector other than the default.  Control
        #: traffic for such a service (register/unregister/promotion/
        #: join) goes to its authority; failure reports still go to
        #: :attr:`report_ip` for hierarchical aggregation.
        self._service_authority: dict[tuple[IPAddress, int], IPAddress] = {}
        sock = host_server.node.udp_socket()
        sock.bind(MGMT_PORT)
        self.channel = ReliableUdp(self.sim, sock, self._on_message)
        #: Wired by the ft layer (repro.core.service).
        self.on_chain_update: Optional[Callable[[ChainUpdate], None]] = None
        self.on_shutdown: Optional[Callable[[Shutdown], None]] = None
        self.on_join_request: Optional[Callable[[JoinRequest], None]] = None
        self.on_state_snapshot: Optional[Callable[[StateSnapshot], None]] = None
        self.on_chain_splice: Optional[Callable[[ChainSplice], None]] = None
        self.on_promotion_grant: Optional[Callable[[PromotionGrant], None]] = None
        self.on_demote: Optional[Callable[[Demote], None]] = None
        self.chain_updates_received = 0
        self.failure_reports_sent = 0
        self.promotion_requests_sent = 0
        self.promotion_give_ups = 0

    @property
    def ip(self) -> IPAddress:
        return self.host_server.ip

    # -- outgoing ---------------------------------------------------------

    def set_service_authority(self, service_ip, port: int, authority_ip) -> None:
        """Name the redirector that owns this service's chain layout
        (defaults to :attr:`redirector_ip` when never called)."""
        self._service_authority[(as_address(service_ip), port)] = as_address(
            authority_ip
        )

    def authority_for(self, service_ip, port: int) -> IPAddress:
        return self._service_authority.get(
            (as_address(service_ip), port), self.redirector_ip
        )

    def register(
        self, service_ip, port: int, mode: str, strategy: str = "chain"
    ) -> None:
        self.channel.send(
            Register(as_address(service_ip), port, self.ip, mode, strategy),
            self.authority_for(service_ip, port),
        )

    def unregister(self, service_ip, port: int, reason: str = "voluntary") -> None:
        self.channel.send(
            Unregister(as_address(service_ip), port, self.ip, reason),
            self.authority_for(service_ip, port),
        )

    def report_failure(self, service_ip, port: int, suspects=()) -> None:
        self.failure_reports_sent += 1
        self.channel.send(
            FailureReport(
                as_address(service_ip), port, self.ip, tuple(suspects)
            ),
            self.report_ip,
        )

    def request_promotion(self, service_ip, port: int, epoch: int) -> None:
        """Bid for primary mode at ``epoch`` (split-brain prevention,
        DESIGN.md §9): entering primary mode requires the redirector's
        PromotionGrant.  Bounded retry with exponential backoff and
        jitter — a partitioned bidder eventually gives up rather than
        flooding the mgmt channel."""
        self.promotion_requests_sent += 1
        self.channel.send(
            PromotionRequest(as_address(service_ip), port, self.ip, epoch),
            self.authority_for(service_ip, port),
            policy=ARBITRATION_RETRY,
            on_give_up=self._promotion_gave_up,
        )

    def _promotion_gave_up(self, message: MgmtMessage) -> None:
        self.promotion_give_ups += 1

    def send_snapshot(self, snapshot: StateSnapshot, dst_ip, on_settled=None) -> None:
        """Donor → joiner: ship a base snapshot or catch-up delta."""
        self.channel.send(snapshot, as_address(dst_ip), on_settled=on_settled)

    def join_ready(
        self, service_ip, port: int, conn_keys=(), bytes_received: int = 0
    ) -> None:
        """Joiner → recovery manager: catch-up installed, splice me in."""
        self.channel.send(
            JoinReady(
                as_address(service_ip),
                port,
                self.ip,
                tuple(conn_keys),
                bytes_received,
            ),
            self.authority_for(service_ip, port),
            policy=JOIN_RETRY,
        )

    # -- incoming ---------------------------------------------------------

    def _on_message(self, message: MgmtMessage, src_ip: IPAddress, src_port: int) -> None:
        if isinstance(message, Ping):
            self.channel.send_unreliable(Pong(nonce=message.nonce), src_ip, src_port)
        elif isinstance(message, ChainUpdate):
            self.chain_updates_received += 1
            if self.on_chain_update is not None:
                self.on_chain_update(message)
        elif isinstance(message, Shutdown):
            if self.on_shutdown is not None:
                self.on_shutdown(message)
        elif isinstance(message, JoinRequest):
            if self.on_join_request is not None:
                self.on_join_request(message)
        elif isinstance(message, StateSnapshot):
            if self.on_state_snapshot is not None:
                self.on_state_snapshot(message)
        elif isinstance(message, ChainSplice):
            if self.on_chain_splice is not None:
                self.on_chain_splice(message)
        elif isinstance(message, PromotionGrant):
            if self.on_promotion_grant is not None:
                self.on_promotion_grant(message)
        elif isinstance(message, Demote):
            if self.on_demote is not None:
                self.on_demote(message)
