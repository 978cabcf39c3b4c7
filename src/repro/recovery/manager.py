"""The recovery manager: autonomous redundancy restoration (EXTENSION,
DESIGN.md §8 — the paper's §6 lists this as future work).

The manager runs at the redirector's management plane.  It observes the
traffic the redirector daemon already handles — membership changes and
failure reports — and maintains a configured *target degree* for one
replicated service.  When the degree drops it drafts a replacement from
the :class:`~repro.recovery.spare_pool.SparePool` and runs the live-join
protocol:

1. **Provision** — the service's server program is bound on the spare
   as a *joiner*: muted failure detector, not registered with the
   redirector (so it is outside the multicast set and the chain).
2. **Catch-up** (phase one) — a ``JoinRequest`` goes to the donor (the
   current chain tail, which deposits first and holds the most
   advanced client stream).  The donor ships a base ``StateSnapshot``
   and keeps forwarding every deposit as a delta; the joiner replays
   the client stream through its deterministic server program and
   answers ``JoinReady``.  The chain keeps running untouched — the
   client observes nothing.
3. **Splice** (phase two) — the manager calls the redirector daemon's
   ``splice_backup``: the joiner enters the multicast set, the chain is
   re-pushed, and a ``ChainSplice`` atomically cuts the per-connection
   gates over to the new last backup.

One join runs at a time; a join that outlives ``join_timeout`` (donor
died mid-transfer, say) is aborted and the spare returned to the pool —
the next poll tick simply tries again against the new chain tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.hydranet.daemons import RedirectorDaemon
from repro.hydranet.mgmt import JOIN_RETRY, FailureReport, JoinReady, JoinRequest
from repro.hydranet.redirector import ServiceKey
from repro.metrics.recovery import DegreeTimeline, RecoveryIncident
from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.simulator import Timer
from repro.replication import chain_position

from .spare_pool import SparePool

if TYPE_CHECKING:
    from repro.core.service import FtNode, ReplicaHandle, ReplicatedTcpService

#: Seconds between the manager's periodic degree checks (membership
#: changes also trigger one immediately).
POLL_INTERVAL = 1.0


@dataclass
class _JoinInProgress:
    node: "FtNode"
    handle: "ReplicaHandle"
    donor_ip: object
    started_at: float


class RecoveryManager:
    """Watches one replicated service and keeps it at target degree."""

    def __init__(
        self,
        service: "ReplicatedTcpService",
        daemon: RedirectorDaemon,
        spares: Optional[SparePool] = None,
        target_degree: int = 2,
        join_timeout: float = 10.0,
    ):
        self.service = service
        self.daemon = daemon
        self.sim = daemon.sim
        self.spares = spares if spares is not None else SparePool()
        self.target_degree = target_degree
        self.join_timeout = join_timeout
        self._join: Optional[_JoinInProgress] = None
        self._degraded_at: Optional[float] = None
        self.incidents: list[RecoveryIncident] = []
        self.timeline = DegreeTimeline()
        self.joins_started = 0
        self.joins_completed = 0
        self.joins_aborted = 0
        daemon.on_membership_change = self._on_membership_change
        daemon.on_failure_report = self._on_failure_report
        daemon.handlers[JoinReady] = self._on_join_ready
        service.recovery = self
        service.retain_client_streams()
        self.timeline.record(self.sim.now, self._degree())
        self._poll_timer = Timer(self.sim, self._poll)
        self._poll_timer.start(POLL_INTERVAL)

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): poll timer; daemon and service hooks
        (the daemon's own teardown drops its JoinReady handler)."""
        self.daemon.on_membership_change = self.daemon.on_failure_report = None
        self._poll_timer = self.service.recovery = None

    # -- observation ------------------------------------------------------

    def _key(self) -> ServiceKey:
        return ServiceKey(self.service.service_ip, self.service.port)

    def _degree(self) -> int:
        """Replication degree as the redirector sees it (authoritative:
        a joiner is not counted until the splice installs it)."""
        entry = self.daemon.redirector.table.get(self._key())
        return len(entry.replicas) if entry is not None else 0

    def _on_membership_change(self, key: ServiceKey) -> None:
        if key != self._key():
            return
        now = self.sim.now
        degree = self._degree()
        self.timeline.record(now, degree)
        if degree < self.target_degree and self._degraded_at is None:
            self._degraded_at = now
        self._check()

    def _on_failure_report(self, msg: FailureReport) -> None:
        if (
            as_address(msg.service_ip) == self.service.service_ip
            and msg.port == self.service.port
            and self._degraded_at is None
        ):
            # Detection time, not removal time: MTTR starts the moment
            # the system first learned something was wrong.
            self._degraded_at = self.sim.now

    def _poll(self) -> None:
        self._poll_timer.start(POLL_INTERVAL)
        self._check()

    # -- the control loop -------------------------------------------------

    def _check(self) -> None:
        join = self._join
        if join is not None:
            entry = self.daemon.redirector.table.get(self._key())
            if entry is not None and join.donor_ip not in entry.replicas:
                # The donor was excised mid-feed: its delta stream died
                # with it, so the joiner's catch-up cut can never reach
                # the live tail's stream.  Splicing anyway would gate
                # the tail on a permanently-gapped successor — abort
                # and restart against the new tail instead.
                self._abort_join()
            elif self.sim.now - join.started_at > self.join_timeout:
                self._abort_join()
            else:
                return
        degree = self._degree()
        if degree == 0 or degree >= self.target_degree:
            # Degree 0 means the whole service is gone — there is no
            # donor and no chain to splice into; nothing we can do.
            if degree >= self.target_degree:
                self._degraded_at = None
            return
        node = self.spares.draft()
        if node is None:
            return
        self._start_join(node)

    def _start_join(self, node: "FtNode") -> Optional["ReplicaHandle"]:
        entry = self.daemon.redirector.table.get(self._key())
        if entry is None or not entry.replicas:
            self.spares.add(node)
            return None
        # The donor is the joiner's future predecessor: the chain tail,
        # which deposits first, or a star's primary, the one replica
        # guaranteed to hold the complete client stream.
        donor_ip, _ = chain_position(
            self.service.strategy, (*entry.replicas, node.ip), len(entry.replicas)
        )
        handle = self.service.provision_joiner(node)
        join = _JoinInProgress(
            node=node, handle=handle, donor_ip=donor_ip, started_at=self.sim.now
        )
        self._join = join
        self.joins_started += 1

        def give_up(_message, join_ref=join):
            # The donor never acknowledged the JoinRequest (crashed or
            # partitioned): abort now instead of waiting out the join
            # timeout — the next poll tick retries against the new tail.
            if self._join is join_ref:
                self._abort_join()

        self.daemon.channel.send(
            JoinRequest(self.service.service_ip, self.service.port, node.ip),
            donor_ip,
            policy=JOIN_RETRY,
            on_give_up=give_up,
        )
        return handle

    def _on_join_ready(self, msg: JoinReady, src_ip: IPAddress) -> None:
        join = self._join
        if (
            join is None
            or as_address(msg.joiner_ip) != join.node.ip
            or as_address(msg.service_ip) != self.service.service_ip
            or msg.port != self.service.port
        ):
            return
        entry = self.daemon.redirector.table.get(self._key())
        if entry is None or join.donor_ip not in entry.replicas:
            # JoinReady raced the donor's excision: the joiner is
            # synced to a stream that ends where the dead donor's
            # deposits ended, not where the live tail's do.
            self._abort_join()
            return
        spliced = self.daemon.splice_backup(
            self.service.service_ip, self.service.port, join.node.ip, msg.conn_keys
        )
        if not spliced:
            self._abort_join()
            return
        now = self.sim.now
        self._join = None
        self.joins_completed += 1
        self.incidents.append(
            RecoveryIncident(
                degraded_at=(
                    self._degraded_at if self._degraded_at is not None else join.started_at
                ),
                catchup_started_at=join.started_at,
                restored_at=now,
                connections_transferred=len(msg.conn_keys),
                transfer_bytes=msg.bytes_received,
            )
        )
        if self._degree() >= self.target_degree:
            self._degraded_at = None
        # Another failure may have piled up while this join ran.
        self._check()

    def _abort_join(self) -> None:
        join = self._join
        if join is None:
            return
        self._join = None
        self.joins_aborted += 1
        node = join.node
        node.stack.decommission(self.service.service_ip, self.service.port)
        if join.handle in self.service.replicas:
            self.service.replicas.remove(join.handle)
        self.spares.add(node)

    # -- operator API -----------------------------------------------------

    def recommission(self, node: "FtNode") -> Optional["ReplicaHandle"]:
        """Live re-commission of a recovered server: run the full
        join protocol so the node also catches up *in-flight*
        connections (the cold path only serves new ones).  Returns the
        joining handle, or None if the node was pooled instead (another
        join already in flight, or no donor available)."""
        if self._join is not None:
            self.spares.add(node)
            return None
        return self._start_join(node)

    def return_spare(self, node: "FtNode") -> None:
        """Wipe a recovered node's stale service state and put it back
        in the pool for the next draft."""
        node.stack.decommission(self.service.service_ip, self.service.port)
        for handle in list(self.service.replicas):
            if handle.node is node:
                self.service.replicas.remove(handle)
        self.spares.add(node)

    def stop(self) -> None:
        self._poll_timer.stop()

    @property
    def join_in_progress(self) -> bool:
        return self._join is not None
