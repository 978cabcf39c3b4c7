"""High-level orchestration: deploy a fault-tolerant TCP service.

This is the public API a downstream user starts from:

.. code-block:: python

    node_a = FtNode(host_server_a, redirector.ip)
    node_b = FtNode(host_server_b, redirector.ip)
    service = ReplicatedTcpService("192.20.225.20", 80, server_factory)
    service.add_primary(node_a)
    service.add_backup(node_b)

``server_factory`` is called once per replica and must return the
``on_accept`` handler for that replica.  Replica server programs must
be deterministic: every replica sees the same client byte stream and
must produce the same response byte stream (the paper's implicit
requirement for primary/backup output to be interchangeable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.hydranet.daemons import HostServerDaemon
from repro.hydranet.host_server import HostServer
from repro.netsim.addressing import IPAddress, as_address
from repro.tcp.options import TcpOptions
from repro.tcp.tcb import TcpConnection

from .ack_channel import AckChannelEndpoint
from .ft_tcp import FtPort, FtStack
from .replicated_port import DetectorParams, PortMode

if TYPE_CHECKING:
    from repro.recovery.manager import RecoveryManager

#: A factory producing the per-replica accept handler.  It receives the
#: replica's host server (for logging / per-replica state) and returns
#: the ``on_accept`` callback.
ServerFactory = Callable[[HostServer], Callable[[TcpConnection], None]]


class FtNode:
    """A host server fully equipped for HydraNet-FT: management daemon,
    acknowledgement-channel endpoint, and ft-TCP stack.

    ``ordered_channel=True`` swaps in the reliable in-order channel the
    paper rejected (ablation A6); all replicas of a service must agree
    on the channel flavour.
    """

    def __init__(
        self,
        host_server: HostServer,
        redirector_ip,
        ordered_channel: bool = False,
    ):
        from .ack_channel import OrderedAckChannelEndpoint

        self.host_server = host_server
        self.daemon = HostServerDaemon(host_server, redirector_ip)
        endpoint_cls = OrderedAckChannelEndpoint if ordered_channel else AckChannelEndpoint
        self.ack_endpoint = endpoint_cls(host_server)
        self.stack = FtStack(host_server, self.ack_endpoint, self.daemon)

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19) of the three parts."""
        self.daemon.dispose()
        self.ack_endpoint.dispose()
        self.stack.dispose()

    @property
    def name(self) -> str:
        return self.host_server.name

    @property
    def ip(self) -> IPAddress:
        return self.host_server.ip


@dataclass
class ReplicaHandle:
    node: FtNode
    ft_port: FtPort

    @property
    def mode(self) -> PortMode:
        return self.ft_port.mode

    @property
    def is_primary(self) -> bool:
        return self.ft_port.is_primary


class ReplicatedTcpService:
    """One fault-tolerant service access point and its replicas."""

    def __init__(
        self,
        service_ip,
        port: int,
        server_factory: ServerFactory,
        detector: Optional[DetectorParams] = None,
        tcp_options: Optional[TcpOptions] = None,
        authority_ip=None,
        strategy: str = "chain",
    ):
        self.service_ip = as_address(service_ip)
        self.port = port
        self.server_factory = server_factory
        self.detector = detector or DetectorParams()
        self.tcp_options = tcp_options
        #: Replication backend every replica of this service runs
        #: (DESIGN.md §15); all replicas must agree on it.
        self.strategy = strategy
        #: Mesh deployments: the redirector owning this service's chain
        #: (``None`` = every node's default redirector, the flat case).
        self.authority_ip = as_address(authority_ip) if authority_ip is not None else None
        self.replicas: list[ReplicaHandle] = []
        #: Set by an attached :class:`~repro.recovery.RecoveryManager`;
        #: when present, ``recommission`` runs the live-join protocol
        #: (in-flight connections included) instead of the cold path.
        self.recovery: Optional["RecoveryManager"] = None
        self._retains_streams = False

    def add_primary(self, node: FtNode) -> ReplicaHandle:
        return self._add(node, PortMode.PRIMARY)

    def add_backup(self, node: FtNode) -> ReplicaHandle:
        return self._add(node, PortMode.BACKUP)

    def _add(self, node: FtNode, mode: PortMode, joining: bool = False) -> ReplicaHandle:
        if self.authority_ip is not None:
            node.daemon.set_service_authority(
                self.service_ip, self.port, self.authority_ip
            )
        ft_port = node.stack.listen_replicated(
            self.service_ip,
            self.port,
            mode,
            self.detector,
            self.strategy,
            self.server_factory(node.host_server),
            self.tcp_options,
            joining,
            self._retains_streams,
        )
        handle = ReplicaHandle(node, ft_port)
        ft_port.on_demoted = lambda: self._on_replica_demoted(ft_port)
        self.replicas.append(handle)
        return handle

    def provision_joiner(self, node: FtNode) -> ReplicaHandle:
        """Bind the service's server program on ``node`` as a *live
        joiner* (recovery subsystem): the port comes up with a muted
        failure detector and without registering at the redirector —
        it catches up in-flight connections via state transfer first,
        and only enters the multicast set at the chain splice."""
        return self._add(node, PortMode.BACKUP, joining=True)

    def retain_client_streams(self) -> None:
        """Arm the service for live joins: every replica, present and
        future, keeps the client stream of each connection it accepts
        from now on, so a joiner can replay it (DESIGN.md §8).
        Connections already open stay untransferable.  Called by an
        attaching :class:`~repro.recovery.RecoveryManager`."""
        self._retains_streams = True
        for handle in self.replicas:
            handle.ft_port.retains_stream = True

    def _on_replica_demoted(self, ft_port: FtPort) -> None:
        """A Demote fail-stopped one of our replicas (it was acting on
        a stale view, DESIGN.md §9).  With a recovery manager attached
        the node is wiped and pooled — the manager's control loop then
        drafts it back in as a backup through the live-join path,
        restoring the target degree.  Without one the handle simply
        stays shut down (the operator can ``recommission`` it)."""
        handle = next((h for h in self.replicas if h.ft_port is ft_port), None)
        if handle is None:
            return
        if self.recovery is not None and not handle.node.host_server.crashed:
            self.recovery.return_spare(handle.node)

    def remove_replica(self, handle: ReplicaHandle, reason: str = "voluntary") -> None:
        """Voluntary departure (paper §4.4 deletion procedures)."""
        handle.node.daemon.unregister(self.service_ip, self.port, reason)
        handle.ft_port.shutdown()
        if handle in self.replicas:
            self.replicas.remove(handle)

    def recommission(self, handle: ReplicaHandle) -> Optional[ReplicaHandle]:
        """Re-commission a recovered server (EXTENSION — the paper's §6
        lists this as future work).

        The recovered replica's pre-failure TCP state is discarded
        (connections it held are stale and are killed silently, never
        resumed).  Without a recovery manager attached this is the
        *cold* path: the node re-joins as the last backup and
        participates only in connections opened from now on — existing
        connections do not gate on it (per-connection chain membership,
        DESIGN.md §5b).  With a :class:`~repro.recovery.RecoveryManager`
        attached, the node instead runs the live-join protocol and also
        catches up in-flight connections (may return ``None`` if the
        manager pooled the node for a later join).
        """
        node = handle.node
        if node.host_server.crashed:
            raise RuntimeError(f"{node.name} is still crashed; recover() it first")
        node.stack.decommission(self.service_ip, self.port)
        if handle in self.replicas:
            self.replicas.remove(handle)
        if self.recovery is not None:
            return self.recovery.recommission(node)
        return self.add_backup(node)

    @property
    def primary(self) -> Optional[ReplicaHandle]:
        """The live primary (a crashed ex-primary never learns it was
        removed, so crashed hosts are excluded here)."""
        for handle in self.replicas:
            if (
                handle.is_primary
                and not handle.ft_port.shut_down
                and not handle.node.host_server.crashed
            ):
                return handle
        return None

    def status(self) -> str:
        """Operator-style report of the replica set and its chain."""
        lines = [
            f"service {self.service_ip}:{self.port} "
            f"({len(self.replicas)} replicas, detector threshold "
            f"{self.detector.threshold})"
        ]
        for handle in self.replicas:
            port = handle.ft_port
            host = handle.node.host_server
            if host.crashed:
                state = "CRASHED"
            elif port.shut_down:
                state = "shut down"
            elif port.joining:
                state = "joining"
            else:
                state = "primary" if port.is_primary else "backup"
            chain = []
            if port.predecessor_ip is not None:
                chain.append(f"pred={port.predecessor_ip}")
            chain.append(f"succ={'yes' if port.has_successor else 'no'}")
            lines.append(
                f"  {host.name:12s} {state:10s} "
                f"conns={len(port.states)} "
                f"promotions={port.promotions} "
                f"detector_reports={port.detector.reports} "
                f"[{' '.join(chain)}]"
            )
        return "\n".join(lines)
