"""Management daemons for redirectors and host servers (paper §4.4).

The redirector daemon owns the redirector table and the acknowledgement-
channel chain layout; host-server daemons register/unregister replicas,
report failures, and hand chain updates to the local ft-TCP machinery.
Each daemon routes every incoming message through one ``handlers``
table (message type -> ``handler(message, src_ip)``); other parts
register their own message types there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.simulator import Simulator
from repro.replication import chain_position

from .host_server import HostServer

from .mgmt import (
    ARBITRATION_RETRY,
    ChainSplice,
    ChainUpdate,
    Demote,
    FailureReport,
    JOIN_RETRY,
    JoinReady,
    MGMT_PORT,
    MgmtMessage,
    Ping,
    Pong,
    PromotionGrant,
    PromotionRequest,
    Register,
    ReliableUdp,
    Shutdown,
    StateSnapshot,
    Unregister,
)
from .redirector import Redirector, ServiceKey

#: A management message handler: ``handler(message, src_ip)``.
Handler = Callable[[MgmtMessage, IPAddress], None]


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
    nonce: int
    candidates: list[IPAddress]
    responded: set[IPAddress] = field(default_factory=set)


class ServiceRecord:
    """Everything one redirector daemon knows about one service beyond
    its table entry.  The record outlives the entry, which the
    redirector deletes whenever the replica set empties, so a
    re-created entry resumes at the newest epoch (DESIGN.md §9)."""

    __slots__ = (
        "authority", "stamp", "strategy", "owners", "grant", "probe",
        "evidence", "reports", "shutdowns", "demoted_at", "fenced",
    )

    def __init__(self):
        #: Authority redirector, learned from TableSync (or this one,
        #: for services registered here); None when unknown.
        self.authority: Optional[IPAddress] = None
        #: Newest (epoch, seq) stamp applied or originated; the next
        #: stamp this redirector originates takes the next seq.
        self.stamp = (-1, 0)
        #: Replication backend (DESIGN.md §15), learned from Register —
        #: decides the layout pushed to replicas (linear daisy chain vs
        #: star around the primary).
        self.strategy: Optional[str] = None
        #: Epoch -> the primary that owned it, one entry per view (D4
        #: counts them); the newest is the current primary.  Lets the
        #: fence name the replica behind a stale segment.
        self.owners: dict[int, IPAddress] = {}
        #: Last (epoch, grantee) — at most one grant per epoch.
        self.grant: tuple = (-1, None)
        #: The liveness probe in flight, if any.
        self.probe: Optional[_Reconfiguration] = None
        #: Failure evidence being batched away from the authority:
        #: [suspect set, report count, hops], or None.
        self.evidence: Optional[list] = None
        #: Suspect -> its report times, for the congestion rule.
        self.reports: dict[IPAddress, list[float]] = {}
        #: Replica -> msg_id of its unacknowledged Shutdown: withdrawn
        #: if the replica re-registers before delivery (a recovered
        #: server must not be killed by a stale shutdown).
        self.shutdowns: dict[IPAddress, int] = {}
        #: Target -> time of its last Demote (rate limiting).
        self.demoted_at: dict[IPAddress, float] = {}
        #: Stale epochs whose owner was caught still transmitting.
        self.fenced: set[int] = set()


class RedirectorDaemon:
    """Runs on a redirector; owns its table and the replica chains."""

    #: Liveness probe deadline (seconds); silent replicas are re-pinged
    #: at each third of it.
    PING_TIMEOUT = 0.75
    #: Congestion rule: this many reports against one suspect inside
    #: the window remove it even though it answers pings.
    CONGESTION_REPORT_THRESHOLD = 3
    CONGESTION_REPORT_WINDOW = 10.0
    #: Away from the authority, evidence is batched this long.
    AGGREGATION_WINDOW = 0.25
    #: A failure summary stops climbing after this many hops.
    MAX_SUMMARY_HOPS = 8
    #: At most one Demote per (service, target) per interval.
    DEMOTE_MIN_INTERVAL = 1.0

    def __init__(self, redirector: Redirector):
        from repro.sockets.api import node_for

        self.redirector = redirector
        self.sim: Simulator = redirector.sim
        self.node = node_for(redirector)
        sock = self.node.udp_socket()
        sock.bind(MGMT_PORT)
        self.channel = ReliableUdp(self.sim, sock, self._on_message)
        self._nonce = 0
        #: The one per-service record (see :class:`ServiceRecord`).
        self.services: dict[ServiceKey, ServiceRecord] = {}
        #: Mesh neighbors: redirectors one hop away in the redirector
        #: mesh.  Table syncs flood over these links (stamp-gated);
        #: a flat peer list (the pre-mesh configuration) is simply a
        #: star-shaped mesh.
        self.peers: list[IPAddress] = []
        #: Mesh parent (next tier up) for hierarchical failure-report
        #: aggregation; None at the root or in flat deployments.
        self.parent: Optional[IPAddress] = None
        self.table_syncs_forwarded = 0
        self.stale_syncs_dropped = 0
        self.failure_summaries_sent = 0
        self.failure_summaries_received = 0
        self.reconfigurations = 0
        self.failovers = 0
        # -- view/epoch fencing counters (DESIGN.md §9) -------------------
        self.promotions_granted = 0
        self.promotions_refused = 0
        self.demotes_sent = 0
        #: Dual-primary near misses: a replica outside the current view
        #: still tried to act as primary and was stopped — the first
        #: stale segment fenced per (service, epoch), a refused bid, or
        #: a zombie's failure report.  Unfenced, each could corrupt a
        #: client stream.
        self.near_misses = 0
        redirector.on_fenced = self._on_fenced
        #: Wired by the recovery manager (EXTENSION, DESIGN.md §8):
        #: observe membership changes and failure reports without
        #: owning the reconfiguration machinery.
        self.on_membership_change: Optional[Callable[[ServiceKey], None]] = None
        self.on_failure_report: Optional[Callable[[FailureReport], None]] = None
        #: Message type -> handler: the one dispatch path.  Heartbeat
        #: detection and the recovery manager add their own types.
        self.handlers: dict[type, Handler] = {
            Register: self._handle_register,
            Unregister: self._handle_unregister,
            FailureReport: self._handle_failure_report,
            FailureSummary: self._handle_failure_summary,
            Pong: self._handle_pong,
            TableSync: self._handle_table_sync,
            PromotionRequest: self._handle_promotion_request,
        }

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): channel; handlers; the redirector's
        fence callback."""
        self.channel.dispose()
        self.handlers = {}
        self.redirector.on_fenced = None

    # -- message handling ------------------------------------------------

    def add_peer(self, peer_ip) -> None:
        """Register a mesh neighbor to keep synchronized (flood-wise)."""
        peer = as_address(peer_ip)
        if peer not in self.peers:
            self.peers.append(peer)

    def set_parent(self, parent_ip) -> None:
        """Name this redirector's next tier up in the mesh hierarchy
        (failure summaries climb toward it); also adds it as a
        neighbor so table syncs flow both ways."""
        self.parent = as_address(parent_ip)
        self.add_peer(self.parent)

    def _on_message(self, message: MgmtMessage, src_ip: IPAddress, src_port: int) -> None:
        handler = self.handlers.get(type(message))
        if handler is not None:
            handler(message, src_ip)

    def _record(self, key: ServiceKey) -> ServiceRecord:
        record = self.services.get(key)
        if record is None:
            record = self.services[key] = ServiceRecord()
        return record

    def _handle_register(self, msg: Register, src_ip: IPAddress) -> None:
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        record = self._record(key)
        # Replicas register here: this redirector is the service's
        # authority (owns its chain layout and reconfiguration).
        record.authority = self.redirector.ip
        # A re-registering replica withdraws any stale Shutdown still
        # being retried toward it.
        stale = record.shutdowns.pop(as_address(msg.server_ip), None)
        if stale is not None:
            self.channel.cancel(stale)
        if msg.mode == "scaling":
            self.redirector.install_scaling(msg.service_ip, msg.port, msg.server_ip)
            self._sync_peers(key)
            return
        if msg.mode == "primary":
            self.redirector.install_ft_primary(msg.service_ip, msg.port, msg.server_ip)
        elif msg.mode == "backup":
            self.redirector.install_ft_backup(msg.service_ip, msg.port, msg.server_ip)
        else:
            return
        record.strategy = msg.strategy
        self._push_chain_updates(key)

    def _handle_unregister(self, msg: Unregister, src_ip: IPAddress) -> None:
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
        record = self._record(key)
        stamp = (msg.epoch, msg.seq)
        if stamp <= record.stamp:
            self.stale_syncs_dropped += 1
            return
        record.stamp = stamp
        if msg.authority_ip is not None:
            record.authority = as_address(msg.authority_ip)
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

    def _sync_peers(self, key: ServiceKey) -> int:
        """Originate the next stamped sync for a service this
        redirector is the authority of; returns the stamp's seq, which
        a chain push shares (the reliable mgmt layer is unordered;
        replicas discard stale layouts by it)."""
        entry = self.redirector.table.get(key)
        record = self._record(key)
        # The stamp's epoch may never regress at the origin, or a
        # deletion (entry gone, epoch unknown) would sort as stale at
        # the peers; the originated stamp floor keeps it monotone.
        last_epoch, last_seq = record.stamp
        epoch = max(entry.epoch if entry else 0, last_epoch)
        seq = last_seq + 1
        record.stamp = (epoch, seq)
        if self.peers:
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
        return seq

    def _is_authority(self, key: ServiceKey) -> bool:
        """Whether this redirector owns the service's reconfiguration.
        Unknown authority (pre-mesh deployments) defaults to yes — the
        legacy single-redirector behaviour."""
        authority = self._record(key).authority
        return authority is None or authority == self.redirector.ip

    def _handle_failure_report(self, msg: FailureReport, src_ip: IPAddress) -> None:
        self._weigh_evidence(msg, 1, 0, reporter=as_address(msg.reporter_ip))

    def _handle_failure_summary(self, msg: FailureSummary, src_ip: IPAddress) -> None:
        self.failure_summaries_received += 1
        self._weigh_evidence(msg, msg.reports, msg.hops)

    def _weigh_evidence(
        self, msg, reports: int, hops: int, reporter: Optional[IPAddress] = None
    ) -> None:
        """The one evidence path, for a direct report from ``reporter``
        and for a summary standing in for ``reports`` of them."""
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        entry = self.redirector.table.get(key)
        if entry is None or not entry.fault_tolerant:
            return
        suspects = [as_address(s) for s in msg.suspects]
        if not self._is_authority(key):
            # Edge or mid-tier role: the service is owned elsewhere.
            # Batch the evidence and let it climb as one summary.
            self._aggregate_failure(key, suspects, reports, hops)
            return
        if reporter is not None:
            if reporter not in entry.replicas:
                # A report from outside the replica set is a zombie of
                # an old view (e.g. a fenced ex-primary whose queued
                # reports surface after a partition heals).  Acting on
                # it could remove the *real* primary — never do;
                # fail-stop the sender instead if its view is provably
                # stale.
                self.near_misses += 1
                self._send_demote(key, reporter, entry.epoch)
                return
            if self.on_failure_report is not None:
                self.on_failure_report(msg)
        # Congestion rule: a suspect that stays "alive" but keeps being
        # reported gets shut down anyway (fail-stop for spurious
        # unavailability, paper §1/§4.4).  A summary counts as the
        # reports it aggregates, capped at the threshold so one summary
        # cannot manufacture more evidence than the rule needs.
        now = self.sim.now
        threshold = self.CONGESTION_REPORT_THRESHOLD
        record = self._record(key)
        for suspect in suspects:
            history = record.reports.setdefault(suspect, [])
            history.extend([now] * min(reports, threshold))
            history[:] = [t for t in history if now - t <= self.CONGESTION_REPORT_WINDOW]
            if len(history) >= threshold and suspect in entry.replicas:
                self._remove_and_rechain(key, {suspect})
                return
        if record.probe is None:
            self._start_probe(key)  # else a probe is already in flight

    def _aggregate_failure(
        self, key: ServiceKey, suspects: list, reports: int, hops: int
    ) -> None:
        """Batch failure evidence for a service owned elsewhere; the
        first piece of evidence arms a flush timer, later pieces merge
        into the pending batch (suspect union, report sum)."""
        record = self._record(key)
        evidence = record.evidence
        if evidence is None:
            record.evidence = [set(suspects), reports, hops]
            self.sim.schedule(self.AGGREGATION_WINDOW, self._flush_summary, key)
            return
        evidence[0].update(suspects)
        evidence[1] += reports
        evidence[2] = max(evidence[2], hops)

    def _flush_summary(self, key: ServiceKey) -> None:
        record = self._record(key)
        evidence, record.evidence = record.evidence, None
        if evidence is None:
            return
        suspects, reports, hops = evidence
        if hops >= self.MAX_SUMMARY_HOPS:
            return  # misconfigured mesh (cycle / no authority): stop climbing
        authority = record.authority
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

    def _start_probe(self, key: ServiceKey) -> None:
        entry = self.redirector.table.get(key)
        if entry is None:
            return
        self._nonce += 1
        reconfig = _Reconfiguration(self._nonce, list(entry.replicas))
        self._record(key).probe = reconfig
        for replica in reconfig.candidates:
            self.channel.send_unreliable(Ping(nonce=reconfig.nonce), replica)
        # Probes are single unreliable datagrams: under a queue-overflow
        # burst one lost ping (or pong) would read as replica death.
        # Re-ping the non-responders midway through the window — a
        # fail-stopped host stays silent through every retry, so clean
        # fail-stop detection concludes at the same deadline as before.
        self.sim.schedule(self.PING_TIMEOUT / 3, self._reping, key, reconfig)
        self.sim.schedule(2 * self.PING_TIMEOUT / 3, self._reping, key, reconfig)
        self.sim.schedule(self.PING_TIMEOUT, self._finish_probe, key, reconfig)

    def _reping(self, key: ServiceKey, reconfig: _Reconfiguration) -> None:
        if self._record(key).probe is not reconfig:
            return
        for replica in reconfig.candidates:
            if replica not in reconfig.responded:
                self.channel.send_unreliable(Ping(nonce=reconfig.nonce), replica)

    def _handle_pong(self, msg: Pong, src_ip: IPAddress) -> None:
        for record in self.services.values():
            if record.probe is not None and record.probe.nonce == msg.nonce:
                record.probe.responded.add(src_ip)

    def _finish_probe(self, key: ServiceKey, reconfig: _Reconfiguration) -> None:
        record = self._record(key)
        if record.probe is not reconfig:
            return
        record.probe = None
        dead = {r for r in reconfig.candidates if r not in reconfig.responded}
        if dead:
            self._remove_and_rechain(key, dead)

    def _remove_and_rechain(self, key: ServiceKey, removed: set[IPAddress]) -> None:
        entry = self.redirector.table.get(key)
        if entry is None:
            return
        old_primary = entry.primary
        shutdowns = self._record(key).shutdowns
        for replica in removed:
            if replica in entry.replicas:
                self.redirector.remove_replica(key.ip, key.port, replica)
                shutdown = Shutdown(key.ip, key.port)
                shutdowns[replica] = shutdown.msg_id
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
        owners = self._record(key).owners
        if owners:
            # A re-created entry starts at 0: resume at the newest view.
            newest = max(owners)
            entry.epoch = max(entry.epoch, newest)
            if owners[newest] == primary:
                return
            entry.epoch += 1
        # Else the initial view: its epoch belongs to the first primary.
        owners[entry.epoch] = primary

    def _push_chain_updates(self, key: ServiceKey) -> None:
        self._advance_epoch(key)
        # One (epoch, seq) stamp orders this layout both toward the
        # replicas (ChainUpdate) and across the mesh (TableSync).
        seq = self._sync_peers(key)
        entry = self.redirector.table.get(key)
        if self.on_membership_change is not None:
            self.on_membership_change(key)
        if entry is None or not entry.fault_tolerant:
            return
        replicas = entry.replicas
        strategy = self.services[key].strategy
        members = tuple(replicas)
        for i, replica in enumerate(replicas):
            predecessor, has_successor = chain_position(strategy, replicas, i)
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

    def _handle_promotion_request(self, msg: PromotionRequest, src_ip: IPAddress) -> None:
        key = ServiceKey(as_address(msg.service_ip), msg.port)
        requester = as_address(msg.requester_ip)
        entry = self.redirector.table.get(key)
        if entry is None or not entry.fault_tolerant:
            return
        if requester not in entry.replicas:
            # A bid from outside the replica set: a zombie of an old
            # view trying to (re-)enter primary mode.
            self._refuse_promotion(key, requester, entry.epoch)
            return
        if requester == entry.primary:
            record = self._record(key)
            granted_epoch, grantee = record.grant
            if entry.epoch > granted_epoch:
                record.grant = (entry.epoch, requester)
                self.promotions_granted += 1
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
        if self._record(key).probe is None:
            self._start_probe(key)

    def _refuse_promotion(self, key: ServiceKey, target: IPAddress, epoch: int) -> None:
        self.promotions_refused += 1
        self.near_misses += 1
        self._send_demote(key, target, epoch)

    def _on_fenced(self, stale_epoch: int, entry) -> None:
        """A client-bound segment stamped with a stale epoch was dropped
        by the redirector's fence: tell its owner to stand down."""
        key = entry.key
        record = self._record(key)
        if stale_epoch not in record.fenced:
            # The first stale segment of this epoch: its owner is
            # provably still in primary mode — a near miss the fence
            # absorbed.
            record.fenced.add(stale_epoch)
            self.near_misses += 1
        owner = record.owners.get(stale_epoch)
        if owner is not None and owner not in entry.replicas:
            self._send_demote(key, owner, entry.epoch)

    def _send_demote(self, key: ServiceKey, target: IPAddress, epoch: int) -> None:
        """Order a stale replica to stand down (rate-limited; the
        receiver acts only when ``epoch`` is ahead of its own view, so
        a Demote can never kill the granted primary of the epoch)."""
        now = self.sim.now
        demoted_at = self._record(key).demoted_at
        last = demoted_at.get(target)
        if last is not None and now - last < self.DEMOTE_MIN_INTERVAL:
            return
        demoted_at[target] = now
        self.demotes_sent += 1
        self.channel.send(
            Demote(key.ip, key.port, epoch), target, policy=ARBITRATION_RETRY
        )

    # -- live join (recovery subsystem, EXTENSION) --------------------------

    def splice_backup(self, service_ip, port: int, joiner_ip, conn_keys) -> bool:
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
        record = self._record(key)
        predecessor, _ = chain_position(
            record.strategy,
            (*entry.replicas, joiner_ip),
            len(entry.replicas),
        )
        # A recovered server re-joining must not be killed by a stale
        # Shutdown still being retried toward it.
        stale = record.shutdowns.pop(joiner_ip, None)
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

    def __init__(self, host_server: HostServer, redirector_ip):
        self.host_server = host_server
        self.sim = host_server.sim
        #: The host server's own (rack) redirector.  Failure evidence
        #: always goes here — in a mesh it aggregates and forwards
        #: summaries up the hierarchy — and so does control traffic for
        #: every service without an authority override.
        self.redirector_ip = as_address(redirector_ip)
        #: Per-service authority override — mesh placements whose chain
        #: is owned by a redirector other than the default.  Control
        #: traffic for such a service (register/unregister/promotion/
        #: join) goes to its authority; failure reports still go to
        #: :attr:`redirector_ip` for hierarchical aggregation.
        self._service_authority: dict[tuple[IPAddress, int], IPAddress] = {}
        sock = host_server.node.udp_socket()
        sock.bind(MGMT_PORT)
        self.channel = ReliableUdp(self.sim, sock, self._on_message)
        #: Message type -> handler: the one dispatch path.  The ft
        #: layer (:class:`~repro.core.ft_tcp.FtStack`) adds the
        #: per-port messages.
        self.handlers: dict[type, Handler] = {Ping: self._handle_ping}
        self.failure_reports_sent = 0

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): channel; handlers."""
        self.channel.dispose()
        self.handlers = {}

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

    def register(self, service_ip, port: int, mode: str, strategy: str) -> None:
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
            self.redirector_ip,
        )

    def request_promotion(self, service_ip, port: int, epoch: int) -> None:
        """Bid for primary mode at ``epoch`` (split-brain prevention,
        DESIGN.md §9): entering primary mode requires the redirector's
        PromotionGrant.  Bounded retry with exponential backoff and
        jitter — a partitioned bidder eventually gives up rather than
        flooding the mgmt channel."""
        self.channel.send(
            PromotionRequest(as_address(service_ip), port, self.ip, epoch),
            self.authority_for(service_ip, port),
            policy=ARBITRATION_RETRY,
        )

    def send_snapshot(self, snapshot: StateSnapshot, dst_ip, on_settled=None) -> None:
        """Donor → joiner: ship a base snapshot or catch-up delta."""
        self.channel.send(snapshot, as_address(dst_ip), on_settled=on_settled)

    def join_ready(self, service_ip, port: int, conn_keys, bytes_received: int) -> None:
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
        handler = self.handlers.get(type(message))
        if handler is not None:
            handler(message, src_ip)

    def _handle_ping(self, message: Ping, src_ip: IPAddress) -> None:
        self.channel.send_unreliable(Pong(nonce=message.nonce), src_ip)
