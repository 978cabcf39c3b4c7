"""The replica management protocol (paper §4.4).

Management daemons run on every HydraNet host server and redirector,
"patterned after the route management infrastructure for IP": they talk
UDP, with a thin reliable layer (message ids, acks, retransmission) for
the non-idempotent exchanges, and interact with the local kernel
directly (here: by calling into the redirector table / ft port table).

Messages
--------
* ``Register`` — a server program bound a (replicated) port; tells the
  redirector about a new scaling replica / primary / backup.
* ``Unregister`` — voluntary departure of a replica.
* ``ChainUpdate`` — redirector → host server: your position in the
  acknowledgement channel (predecessor address, whether you have a
  successor, whether you are now the primary).
* ``FailureReport`` — host server → redirector: repeated client
  retransmissions detected; suspected replica(s) attached.
* ``Ping``/``Pong`` — redirector probes replica liveness during
  reconfiguration (deliberately unreliable).
* ``Ack`` — reliable-layer acknowledgement.

View/epoch fencing messages (EXTENSION — split-brain prevention, see
DESIGN.md §9; a failure only "partitions the acknowledgement channel",
so a crash and a partition are indistinguishable to the replicas and
promotion must be arbitrated centrally):

* ``PromotionRequest`` — backup → redirector: my failure estimator
  suspects the primary; I bid to take over.  Carries the requester's
  current epoch so the redirector can reject bids based on a stale
  view of the chain.
* ``PromotionGrant`` — redirector → new primary: you own the service's
  new epoch.  At most one grant is ever issued per epoch.
* ``Demote`` — redirector → stale replica: the service has moved past
  your epoch; go silent and rejoin through the recovery path.

Live-join messages (EXTENSION — the recovery subsystem, see DESIGN.md
§8; the paper's §6 lists re-integration of recovered servers as future
work):

* ``JoinRequest`` — recovery manager → donor replica: start feeding a
  joining replica the state of the in-flight connections.
* ``StateSnapshot`` — donor → joiner: per-connection ft-TCP state plus
  the client byte stream so far (``delta=True`` for the incremental
  catch-up stream that follows the base snapshot).
* ``JoinReady`` — joiner → recovery manager: catch-up installed; the
  chain can be extended.
* ``ChainSplice`` — recovery manager → old tail + joiner: atomically
  extend the acknowledgement-channel chain with the joiner as the new
  last backup (second phase of the two-phase cut-over).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.simulator import Simulator, Timer
from repro.udp.udp import UdpSocket

MGMT_PORT = 5520

_msg_ids = itertools.count(1)


@dataclass
class MgmtMessage:
    """Base class: every message has a unique id for the reliable layer."""

    msg_id: int = field(default_factory=lambda: next(_msg_ids), init=False)
    wire_size = 48


@dataclass
class Register(MgmtMessage):
    service_ip: IPAddress
    port: int
    server_ip: IPAddress
    mode: str  # "scaling" | "primary" | "backup"
    #: Replication backend of the registering replica (DESIGN.md §15);
    #: decides the layout the redirector pushes (linear chain vs star).
    strategy: str = "chain"


@dataclass
class Unregister(MgmtMessage):
    service_ip: IPAddress
    port: int
    server_ip: IPAddress
    reason: str = "voluntary"


@dataclass
class ChainUpdate(MgmtMessage):
    service_ip: IPAddress
    port: int
    predecessor_ip: Optional[IPAddress]
    has_successor: bool
    is_primary: bool
    #: The service epoch this layout belongs to.  Replicas ignore
    #: updates older than what they have already applied (the reliable
    #: layer is unordered), and stamp the epoch on client-bound output
    #: so the redirector can fence stale primaries.
    epoch: int = 0
    #: Monotonic per-service push counter: orders updates *within* an
    #: epoch (e.g. a backup joining does not bump the epoch).
    seq: int = 0
    #: Full replica list of this layout, primary first.  Star-layout
    #: backends (broadcast/checkpoint) gate on membership rather than
    #: on one successor; the chain backend ignores it.
    members: tuple = ()


@dataclass
class FailureReport(MgmtMessage):
    service_ip: IPAddress
    port: int
    reporter_ip: IPAddress
    suspects: tuple = ()


@dataclass
class Ping(MgmtMessage):
    nonce: int = 0
    wire_size = 16


@dataclass
class Pong(MgmtMessage):
    nonce: int = 0
    wire_size = 16


@dataclass
class Ack(MgmtMessage):
    acked_id: int = 0
    wire_size = 12


@dataclass
class PromotionRequest(MgmtMessage):
    """Backup → redirector: bid to take over as primary.

    ``epoch`` is the epoch of the chain layout the requester last
    applied — a bid carrying an old epoch was formed on a stale view
    (another arbitration already happened) and is refused."""

    service_ip: IPAddress
    port: int
    requester_ip: IPAddress
    epoch: int = 0


@dataclass
class PromotionGrant(MgmtMessage):
    """Redirector → replica: you are the primary for ``epoch``.

    The redirector issues at most one grant per epoch; the grant is
    also encoded in the ChainUpdate push, so this message is the
    low-latency fast path, not the only carrier."""

    service_ip: IPAddress
    port: int
    primary_ip: IPAddress
    epoch: int = 0


@dataclass
class Demote(MgmtMessage):
    """Redirector → stale replica: the service is at ``epoch`` and you
    are not part of it.  Stop acting as a replica (especially: stop
    transmitting with the service address) and rejoin via recovery."""

    service_ip: IPAddress
    port: int
    epoch: int = 0


@dataclass
class ConnSnapshot:
    """Transferable ft-TCP state of one in-flight connection.

    ``input`` is a slice of the client byte stream starting at stream
    offset ``input_start``.  The joiner replays it through its
    deterministic server program to regenerate the response stream, so
    no response bytes travel on the wire.

    A base snapshot is *chunked*: a long catch-up log would exceed what
    one datagram can carry across the era links (IP fragments of a
    single huge datagram overrun the bottleneck queue and the message
    can never reassemble), so the donor ships it as many snapshots of
    at most a chunk each.  ``input_total`` carries the log length at
    the snapshot cut on every piece of a base transfer; the joiner
    replies JoinReady only once its contiguous stream reaches that
    mark.  Plain post-snapshot deltas leave it at -1.
    """

    client_ip: IPAddress
    client_port: int
    iss: int
    irs: int
    input: bytes
    input_start: int = 0
    #: Response stream offset the client has acknowledged (donor's
    #: ``snd_una``) — replayed response below this needs no retention.
    client_acked: int = 0
    peer_window: int = 0
    #: Catch-up log length at the base-snapshot cut (-1 outside one).
    input_total: int = -1

    #: Fixed per-connection header on the wire, before the input bytes.
    HEADER_SIZE = 44

    @property
    def wire_size(self) -> int:
        return self.HEADER_SIZE + len(self.input)

    @property
    def client_key(self) -> tuple[IPAddress, int]:
        # Normalised so it matches FtPort.states keys regardless of how
        # the snapshot's client_ip was spelled.
        return (as_address(self.client_ip), self.client_port)


@dataclass
class JoinRequest(MgmtMessage):
    """Recovery manager → donor: feed ``joiner_ip`` the live state."""

    service_ip: IPAddress
    port: int
    joiner_ip: IPAddress


@dataclass
class StateSnapshot(MgmtMessage):
    """Donor → joiner: connection state (base snapshot or delta)."""

    service_ip: IPAddress
    port: int
    donor_ip: IPAddress
    conns: tuple = ()
    delta: bool = False
    #: Service epoch at the donor when the snapshot was cut, so the
    #: joiner starts epoch-aware and cannot be confused by a delayed
    #: ChainUpdate from before the join (split-brain prevention).
    epoch: int = 0

    def __post_init__(self):
        # Instance attribute shadows the 48-byte class default: a
        # snapshot's wire size is dominated by the shipped byte stream.
        self.wire_size = 48 + sum(c.wire_size for c in self.conns)


@dataclass
class JoinReady(MgmtMessage):
    """Joiner → recovery manager: base snapshot installed."""

    service_ip: IPAddress
    port: int
    joiner_ip: IPAddress
    conn_keys: tuple = ()
    bytes_received: int = 0


@dataclass
class ChainSplice(MgmtMessage):
    """Recovery manager → old tail and joiner: extend the chain.

    The old tail starts gating the listed in-flight connections on the
    joiner (which holds live state for exactly those connections); the
    joiner learns its predecessor and announces its progress on the
    acknowledgement channel.
    """

    service_ip: IPAddress
    port: int
    predecessor_ip: IPAddress
    joiner_ip: IPAddress
    conn_keys: tuple = ()


@dataclass(frozen=True)
class RetryPolicy:
    """Retry schedule for the reliable management layer.

    Attempt ``n`` (0-based) is followed, if unacknowledged, by a wait of
    ``interval * backoff**n`` capped at ``max_interval``, with a
    symmetric random jitter of ±``jitter`` (as a fraction of the wait)
    to de-synchronize competing senders.  After ``max_tries`` attempts
    the message is abandoned and the sender's give-up callback fires.
    """

    interval: float = 0.5
    backoff: float = 1.0
    max_interval: float = 8.0
    jitter: float = 0.0
    max_tries: int = 8

    def delay(self, attempt: int, rng) -> float:
        wait = min(self.interval * self.backoff ** attempt, self.max_interval)
        if self.jitter:
            wait *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return wait


#: Fixed-interval schedule matching the original reliable layer.
DEFAULT_RETRY = RetryPolicy()

#: Arbitration traffic (promotion bids, demotes) backs off exponentially
#: with jitter: during a partition these messages are *expected* to keep
#: failing, and hammering a congested path would worsen the very
#: condition that triggered them.
ARBITRATION_RETRY = RetryPolicy(
    interval=0.3, backoff=2.0, max_interval=4.0, jitter=0.2, max_tries=6
)

#: Join-protocol control messages (JoinRequest/JoinReady) use the same
#: backoff shape but try longer — a join is worth more patience than a
#: promotion bid, which goes stale quickly.
JOIN_RETRY = RetryPolicy(
    interval=0.4, backoff=2.0, max_interval=4.0, jitter=0.2, max_tries=8
)


class ReliableUdp:
    """At-least-once delivery with dedup for the management daemons.

    Retransmits on a :class:`RetryPolicy` schedule until an :class:`Ack`
    for the message id arrives or the policy's tries are exhausted (the
    optional give-up callback then fires).  Receivers acknowledge and
    deduplicate by (sender, msg_id).
    """

    def __init__(
        self,
        sim: Simulator,
        sock: UdpSocket,
        on_message: Callable[[MgmtMessage, IPAddress, int], None],
        interval: float = 0.5,
        max_tries: int = 8,
    ):
        self.sim = sim
        self.sock = sock
        self.on_message = on_message
        self.interval = interval
        self.max_tries = max_tries
        self._pending: dict[int, Timer] = {}
        self._settled_cbs: dict[int, Callable[[], None]] = {}
        self._seen: dict[tuple[IPAddress, int], float] = {}
        self._host = getattr(getattr(sock, "_stack", None), "host", None)
        self.sock.on_datagram = self._receive
        self.messages_sent = 0
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.give_ups = 0

    def send(
        self,
        message: MgmtMessage,
        dst_ip,
        dst_port: int = MGMT_PORT,
        policy: Optional[RetryPolicy] = None,
        on_give_up: Optional[Callable[[MgmtMessage], None]] = None,
        on_settled: Optional[Callable[[], None]] = None,
    ) -> None:
        """Send reliably (retransmit until acked or tries exhausted).

        ``on_settled`` fires exactly once when the message stops being
        our problem — acked, given up, cancelled, or dropped with a
        crashed host — so callers can window a bulk transfer on it."""
        dst = as_address(dst_ip)
        if policy is None:
            policy = RetryPolicy(interval=self.interval, max_tries=self.max_tries)
        tries = {"n": 0}
        if on_settled is not None:
            self._settled_cbs[message.msg_id] = on_settled

        def transmit() -> None:
            # Looked up: closing over its own timer is a cycle per message.
            timer = self._pending.get(message.msg_id)
            if timer is None:
                return
            if self._host is not None and self._host.crashed:
                # Fail-stop: the daemon process died with the host; its
                # queued retransmissions must never fire after a reboot.
                self._pending.pop(message.msg_id, None)
                self._settle(message.msg_id)
                return
            if tries["n"] >= policy.max_tries:
                self._pending.pop(message.msg_id, None)
                self.give_ups += 1
                self._settle(message.msg_id)
                if on_give_up is not None:
                    on_give_up(message)
                return
            if tries["n"] > 0:
                self.retransmissions += 1
            self.sock.send_to(dst, dst_port, message)
            timer.start(policy.delay(tries["n"], self.sim.rng))
            tries["n"] += 1

        self._pending[message.msg_id] = Timer(self.sim, transmit)
        self.messages_sent += 1
        transmit()

    def _settle(self, msg_id: int) -> None:
        callback = self._settled_cbs.pop(msg_id, None)
        if callback is not None:
            callback()

    def cancel(self, msg_id: int) -> None:
        """Withdraw an unacknowledged message (it must not be delivered
        after circumstances changed, e.g. a Shutdown for a replica that
        has since re-registered)."""
        timer = self._pending.pop(msg_id, None)
        if timer is not None:
            timer.stop()
        self._settle(msg_id)

    def send_unreliable(self, message: MgmtMessage, dst_ip, dst_port: int = MGMT_PORT) -> None:
        self.sock.send_to(as_address(dst_ip), dst_port, message)
        self.messages_sent += 1

    def _receive(self, data: object, src_ip: IPAddress, src_port: int, dst_ip) -> None:
        if isinstance(data, Ack):
            timer = self._pending.pop(data.acked_id, None)
            if timer is not None:
                timer.stop()
            self._settle(data.acked_id)
            return
        if not isinstance(data, MgmtMessage):
            return
        if isinstance(data, (Ping, Pong)):
            # Liveness probes are deliberately unreliable and not
            # deduplicated: every probe deserves a fresh answer.
            self.on_message(data, src_ip, src_port)
            return
        self.sock.send_to(src_ip, src_port, Ack(acked_id=data.msg_id))
        key = (src_ip, data.msg_id)
        if key in self._seen:
            self.duplicates_dropped += 1
            return
        self._seen[key] = self.sim.now
        if len(self._seen) > 4096:
            cutoff = sorted(self._seen.values())[len(self._seen) // 2]
            self._seen = {k: t for k, t in self._seen.items() if t > cutoff}
        self.on_message(data, src_ip, src_port)

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): timers, settle callbacks, handler."""
        self._pending, self._settled_cbs, self.on_message = {}, {}, None
