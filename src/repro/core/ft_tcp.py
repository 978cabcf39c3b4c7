"""The ft-TCP stack (paper §4.1, §4.3): replica-side machinery that
turns an ordinary TCP listener into one replica of a fault-tolerant
service.

Per replicated port this module maintains:

* the *deposit gate* — server ``Si`` deposits byte ``k`` into the
  socket buffer only after the successor ``S(i+1)`` reported an
  acknowledgement number beyond ``k`` (the last backup deposits
  immediately);
* the *output gate* — ``Si`` sends byte ``k`` of the response only
  after the successor reported a sequence number ≥ ``k``;
* the *output filter* — a backup's outgoing packets are never sent to
  the client; their SEQUENCE/ACKNOWLEDGEMENT numbers travel up the
  acknowledgement channel and the packet is discarded;
* the *failure estimator* — repeated client retransmissions observed
  at the port trigger a failure report to the redirector;
* *chain updates* — the management protocol re-chains replicas and
  promotes a backup to primary during fail-over;
* the *catch-up log* and *chain splice* — hooks for the recovery
  subsystem (EXTENSION, DESIGN.md §8): where something can consume it,
  a connection records the client byte stream it deposited so a
  replacement replica can be brought up to speed live, and a two-phase
  splice extends the chain with the joiner as the new last backup.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.addressing import IPAddress, as_address
from repro.netsim.packet import TCPSegment
from repro.netsim.simulator import Timer
from repro.hydranet.mgmt import (
    ChainSplice,
    ChainUpdate,
    ConnSnapshot,
    Demote,
    JoinRequest,
    PromotionGrant,
    Shutdown,
    StateSnapshot,
)
from repro.tcp.buffers import UNGATED
from repro.tcp.seqnum import seq_add
from repro.tcp.stack import Listener, deterministic_iss
from repro.tcp.tcb import TcpConnection, TcpState

from repro.replication import MemberTable, create_strategy

from .ack_channel import AckChannelEndpoint, AckChannelMessage
from .failure_detector import RetransmissionDetector
from .replicated_port import SUCCESSOR_QUIET, DetectorParams, PortMode

if TYPE_CHECKING:
    from repro.hydranet.daemons import HostServerDaemon
    from repro.hydranet.host_server import HostServer
    from repro.tcp.options import TcpOptions

ClientKey = tuple[IPAddress, int]

#: Per-connection cap on the catch-up log.  A connection whose client
#: stream outgrows it becomes untransferable (it is skipped in
#: snapshots and keeps running with whatever redundancy it has).
DEFAULT_CATCHUP_LOG_LIMIT = 4 * 1024 * 1024

#: Stream bytes per base-transfer piece (a handful of IP fragments on
#: an era 1500-byte-MTU link), so no single datagram's fragments can
#: overrun a bottleneck queue (which would make the message
#: unreassemblable at any number of retries).
DEFAULT_CATCHUP_CHUNK = 4096

#: Base-transfer pieces kept in flight at once (ack-clocked): enough to
#: keep the pipe busy across one mgmt RTT, small enough that a burst
#: can never overflow a bottleneck drop-tail queue.
CATCHUP_WINDOW = 4

#: Period of each port's liveness check (and of the degradation-mode
#: keepalive): twice per ``SUCCESSOR_QUIET``.
LIVENESS_PERIOD = SUCCESSOR_QUIET / 2


class FtError(RuntimeError):
    pass


class CatchupLog:
    """The client byte stream deposited on one connection, retained so
    a joining replica can replay it through the deterministic server
    program (EXTENSION — recovery subsystem, DESIGN.md §8).

    Deposits arrive in order starting at stream offset 0, so the log is
    one append-only buffer.  ``size`` is the next expected offset; a
    hole (hook attached late) or exceeding ``limit`` marks the log
    ``truncated`` and frees the memory — the connection then cannot be
    transferred."""

    __slots__ = ("limit", "size", "truncated", "_buf")

    def __init__(self, limit: int = DEFAULT_CATCHUP_LOG_LIMIT):
        self.limit = limit
        self.size = 0
        self.truncated = False
        #: Created by the first deposit recorded.
        self._buf: Optional[bytearray] = None

    def record(self, start: int, data: bytes) -> None:
        if self.truncated:
            return
        if start != self.size or self.size + len(data) > self.limit:
            self.truncated = True
            self._buf = None
            return
        if self.size:
            self._buf += data
        else:
            self._buf = bytearray(data)
        self.size += len(data)

    def contents(self) -> bytes:
        return bytes(self._buf or b"")

    def slice(self, start: int, n: int) -> bytes:
        """At most ``n`` stream bytes from offset ``start``."""
        return bytes((self._buf or b"")[start : start + n])


class _NotRetained(CatchupLog):
    """The log of a connection whose stream nobody can consume
    (DESIGN.md §8, "who retains the client stream"): born truncated,
    records nothing.  Its fields are class attributes, so the one
    shared instance cannot be written to."""

    __slots__ = ()
    limit = size = 0
    truncated = True
    _buf = None

    def __init__(self):
        pass


_NOT_RETAINED = _NotRetained()


class FtConnectionState:
    """Per-connection fault-tolerance state on one replica."""

    __slots__ = (
        "port", "conn", "created_at", "gated", "members",
        "last_report_sent", "catchup_log", "monitor",
    )

    def __init__(self, port: "FtPort", conn: TcpConnection, gated: bool):
        self.port = port
        self.conn = conn
        self.created_at = port.sim.now
        #: Whether this replica waits on a successor for this
        #: connection.  Set at connection creation from the chain
        #: layout; cleared when the successor is removed — a backup
        #: added mid-connection has no state for it and must not gate
        #: us.  The one way it turns back on is a chain splice: the
        #: joiner then provably holds live state for this connection.
        self.gated = gated
        #: What the members this connection is gated on reported, and
        #: the effective watermarks the gates read (DESIGN.md §15.1).
        self.members = MemberTable()
        #: When this replica last reported its own progress upstream
        #: (segment-driven or announced) — the keepalive only fills
        #: gaps the data path leaves.
        self.last_report_sent: Optional[float] = None
        #: Client stream retained for live joins (recovery subsystem),
        #: when the port has a consumer for it.
        self.catchup_log = CatchupLog() if port.retains_stream else _NOT_RETAINED
        #: The invariant monitors' record of this connection, made by
        #: the first monitor hook that needs it.
        self.monitor = None

    def push_gates(self) -> None:
        """Publish this connection's commit points into its TCB (paper
        §4.1): the members' effective watermarks while gated,
        ``UNGATED`` otherwise.  The one writer of both — called by the
        member table's refresh and where a connection is ungated; the
        TCB acts on them at its next read, or at once via
        ``conn.gates_changed()``."""
        conn = self.conn
        if self.gated:
            members = self.members
            conn.reassembler.ceiling = members.deposited
            conn.send_buffer.commit = members.sent
        else:
            conn.reassembler.ceiling = conn.send_buffer.commit = UNGATED

    # -- recovery hooks -------------------------------------------------

    def record_deposit(self, start: int, data: bytes) -> None:
        """TCB deposit hook: log the client bytes and forward them to
        any replica currently catching up on this connection."""
        invariants = self.port.sim.invariants
        if invariants is not None:
            invariants.on_deposit(self, start, data)
        self.catchup_log.record(start, data)
        self.port._forward_delta(self, start, data)

    def snapshot(self, start: int, data: bytes) -> ConnSnapshot:
        """This connection with client stream bytes ``data`` from
        offset ``start``: a base-transfer piece or a catch-up delta."""
        conn = self.conn
        return ConnSnapshot(
            client_ip=conn.remote_ip,
            client_port=conn.remote_port,
            iss=conn.iss,
            irs=conn.irs,
            input=data,
            input_start=start,
            client_acked=conn.snd_una,
            peer_window=conn.peer_window,
        )

    def announce(self) -> None:
        """Report this replica's current progress on the
        acknowledgement channel unprompted (a joiner does this right
        after the chain splice so its new predecessor can open its
        gates without waiting for fresh client traffic)."""
        conn = self.conn
        port = self.port
        if port.predecessor_ip is None or conn.irs is None:
            return
        message = AckChannelMessage(
            service_ip=port.service_ip,
            service_port=port.port,
            client_ip=conn.remote_ip,
            client_port=conn.remote_port,
            seq_next=seq_add(conn.iss, 1 + conn.snd_nxt),
            ack=seq_add(conn.irs, 1 + conn.ack_point),
            epoch=port.epoch,
        )
        self.last_report_sent = port.sim.now
        port.ack_endpoint.send(message, port.predecessor_ip)

    # -- hook installed into the TCB --------------------------------------

    def filter_output(self, segment: TCPSegment) -> bool:
        return self.port._filter_output(self, segment)

    # -- ack-channel input ----------------------------------------------

    def apply(self, message: AckChannelMessage, sender: IPAddress) -> None:
        self.members.report(self, message, sender)

    def blocked_on_successor(self) -> bool:
        """True when this connection cannot make progress until the
        successor reports on the acknowledgement channel."""
        if not self.gated:
            return False
        conn = self.conn
        reasm = conn.reassembler
        members = self.members
        if (
            reasm.in_order_end > reasm.take_point
            and members.deposited <= reasm.take_point
        ):
            return True  # deposit-gated data is waiting
        if (
            conn.send_buffer.end > conn.snd_nxt
            and members.sent <= conn.snd_nxt
        ):
            return True  # output-gated data is waiting
        if (
            conn.fin_queued
            and not conn.fin_sent
            and members.sent <= conn.send_buffer.end
        ):
            return True  # FIN is gated
        return False

    def successor_silence(self) -> float:
        """Seconds since the straggler was last heard for this
        connection (since creation if never heard)."""
        last = self.members.last_heard
        if last is None:
            last = self.created_at
        return self.port.sim.now - last


class FtPort:
    """One replicated TCP port on one host server."""

    def __init__(
        self,
        host_server: "HostServer",
        service_ip: IPAddress,
        port: int,
        mode: PortMode,
        detector: DetectorParams,
        strategy: str,
        joining: bool,
        retain_streams: bool,
        ack_endpoint: AckChannelEndpoint,
        daemon: "HostServerDaemon",
    ):
        self.host_server = host_server
        self.sim = host_server.sim
        self.service_ip = as_address(service_ip)
        self.port = port
        self.mode = mode
        self.ack_endpoint = ack_endpoint
        self.daemon = daemon
        #: Replication backend (DESIGN.md §15): how deposits/output are
        #: gated, how replica progress is folded in, and whom a quiet
        #: acknowledgement channel incriminates.
        self.strategy = create_strategy(strategy, self)
        #: True while this replica is catching up as a live joiner: it
        #: is not in the redirector's multicast set yet, replays the
        #: donor's stream locally, and must not raise failure reports
        #: (its retransmission timers fire with nobody ACKing until the
        #: chain splice, which clears it).
        self.joining = joining
        #: Whether connections accepted from now on keep their client
        #: stream (DESIGN.md §8): for a strategy that reads the log, for
        #: a live joiner (its log size is the join's progress counter)
        #: and on a service armed by ``retain_client_streams``.  Never
        #: cleared.
        self.retains_stream = self.strategy.reads_catchup_log or joining or retain_streams
        self.listener: Optional[Listener] = None
        self.predecessor_ip: Optional[IPAddress] = None
        #: Until the first chain update arrives a lone primary has no
        #: successor and a backup pessimistically assumes it has none
        #: either (it is last in the chain until told otherwise).
        self.has_successor = False
        self.states: dict[ClientKey, FtConnectionState] = {}
        self._prune_at = 256  # table size that triggers ``_prune_states``
        self._pending_msgs: dict[ClientKey, list[tuple[AckChannelMessage, IPAddress]]] = {}
        self._unknown_last_seq: dict[tuple, int] = {}
        self.detector = RetransmissionDetector(self.sim, detector, self._report_failure)
        self.shut_down = False
        #: Donor side: joiner ip -> connection keys being fed deltas.
        self._catchup_feeds: dict[IPAddress, set[ClientKey]] = {}
        #: Donor side: joiner ip -> base-transfer pieces not yet sent
        #: (drained ack-clocked, CATCHUP_WINDOW pieces in flight).
        self._catchup_queues: dict[IPAddress, list] = {}
        #: Joiner side: deltas that outran the base snapshot install.
        self._pending_deltas: dict[ClientKey, list[ConnSnapshot]] = {}
        #: Joiner side: per-connection stream length of the base cut —
        #: JoinReady goes out only when every installed connection's
        #: contiguous stream reaches its mark.
        self._catchup_targets: dict[ClientKey, int] = {}
        self._base_installed = False
        self._join_ready_sent = False
        self.snapshots_sent = 0
        self.connections_transferred = 0
        self.catchup_bytes_received = 0
        self.promotions = 0
        self.demotions = 0
        #: Failure-report kind -> sim time of the last one sent (the
        #: per-kind cooldown of :meth:`_report`).
        self._last_report: dict[str, float] = {}
        #: Gray-failure defenses (DESIGN.md §14): implausible progress
        #: reports rejected, stale-epoch reports dropped, and failure
        #: reports raised against a lying or slow-but-alive successor.
        self.implausible_reports = 0
        self.stale_epoch_dropped = 0
        self.lie_reports = 0
        self.degradation_reports = 0
        #: client key -> (sim time its connection's stall clock last
        #: (re)started, successor watermarks observed then) — degradation
        #: mode only.  Any advance resets the clock: a saturated-but-
        #: moving successor is congestion, not failure.
        self._blocked: dict[ClientKey, tuple[float, tuple[int, int]]] = {}
        #: View epoch this replica believes it is in (DESIGN.md §9).
        #: The primary stamps it on every client-bound segment; the
        #: redirector fences output stamped with an older epoch.
        self.epoch = 0
        #: (epoch, seq) of the newest chain layout applied — the
        #: reliable mgmt layer is unordered, older layouts are ignored.
        self._chain_stamp: tuple[int, int] = (-1, -1)
        #: Epoch of a promotion awaiting the redirector's grant.  A
        #: backup never enters primary mode without one.
        self._pending_promotion: Optional[int] = None
        #: Service-layer hook fired after a Demote fail-stopped this
        #: replica (the recovery subsystem rejoins the node as backup).
        self.on_demoted: Optional[Callable[[], None]] = None
        ack_endpoint.register(self.service_ip, port, self._on_ack_channel)
        # Active liveness check: a failure partitions the acknowledgement
        # channel (paper §4.4); when connections are blocked on a silent
        # successor — a state no retransmission would ever signal, e.g.
        # a server-push stream with a dead backup — report it.
        self._liveness_timer = Timer(self.sim, self._liveness_check)
        self._liveness_timer.start(LIVENESS_PERIOD)
        self.strategy.start()

    @property
    def is_primary(self) -> bool:
        return self.mode == PortMode.PRIMARY

    # -- binding ----------------------------------------------------------

    def bind(
        self,
        on_accept: Callable[[TcpConnection], None],
        tcp_options: Optional["TcpOptions"],
    ) -> Listener:
        """Create the listener for the replicated port (the server
        program's ``bind()``).  A live joiner does not register: it
        must not enter the redirector's multicast set (and hence the
        chain) until its catch-up is complete and the recovery manager
        splices it in."""
        if self.listener is not None:
            raise FtError(f"port {self.port} already bound")
        self.host_server.v_host(self.service_ip)
        listener = self.host_server.node.listen(
            self.port, ip=self.service_ip, options=tcp_options
        )
        listener.iss_policy = deterministic_iss
        listener.silent_on_unknown = True
        # Repeated segments for a connection this replica has no state
        # for (it joined mid-connection and the replicas that did know
        # it are gone) are still a failure signal: a client is
        # retransmitting into a service nobody answers.
        listener.on_unknown_segment = self._on_unknown_segment
        listener.configure_connection = self._configure_connection
        listener.on_accept = on_accept
        self.listener = listener
        if not self.joining:
            self.daemon.register(
                self.service_ip, self.port, self.mode.value, self.strategy.name
            )
        return listener

    # -- connection wiring ---------------------------------------------------

    def _configure_connection(self, conn: TcpConnection) -> None:
        if self.shut_down:
            return
        if len(self.states) >= self._prune_at:
            self._prune_states()  # before the newcomer, still CLOSED, is in the table
        key = (conn.remote_ip, conn.remote_port)
        state = FtConnectionState(self, conn, gated=self.has_successor)
        self.states[key] = state
        conn.clamp_future_acks = True
        if state.gated:
            for ip in self.strategy.gating_targets():
                state.members.admit(state, ip)
        state.members.refresh(state)
        conn.output_filter = state.filter_output
        conn.on_deposit_data = state.record_deposit
        # A replica's own retransmissions are the failure signal for
        # server-push traffic: with the primary dead, nothing ACKs the
        # stream, so every live replica's TCP starts retransmitting.
        conn.on_retransmission_observed = conn.on_retransmit = self._on_retransmission
        # The stack fixed IRS before calling here, so reports that beat
        # the SYN are applied now, once.
        for message, sender in self._pending_msgs.pop(key, ()):
            state.apply(message, sender)

    def _prune_states(self) -> None:
        """Drop closed connections' states.  Runs when the table has
        doubled since the last run, not on every accept past some size."""
        for key in [k for k, st in self.states.items() if st.conn.state == TcpState.CLOSED]:
            self.states.pop(key).conn.dispose()
        self._prune_at = max(256, 2 * len(self.states))

    # -- output path (paper: backups strip flow-control info and discard) ----

    def _filter_output(self, state: FtConnectionState, segment: TCPSegment) -> bool:
        if self.shut_down:
            return True  # a removed replica is silent
        if self.is_primary:
            members = state.members
            if members.fence is not None and members.fence_holds(state):
                return True
            # The primary talks to the client normally, stamping its
            # view epoch so the redirector can fence stale output.
            segment.epoch = self.epoch
            invariants = self.sim.invariants
            if invariants is not None:
                invariants.on_client_segment(self, state, segment)
            return False
        # A backup's packet never reaches the client; what its flow
        # control fields turn into is the strategy's call (chain and
        # broadcast report to the predecessor, checkpoint stays silent
        # between checkpoint ticks).
        return self.strategy.filter_backup_output(state, segment)

    # -- ack-channel input -----------------------------------------------------

    def _on_ack_channel(self, message: AckChannelMessage, sender: IPAddress) -> None:
        key = (message.client_ip, message.client_port)
        state = self.states.get(key)
        if state is None:
            pending = self._pending_msgs.setdefault(key, [])
            if len(pending) < 16 and len(self._pending_msgs) < 1024:
                pending.append((message, sender))
            return
        state.apply(message, sender)
        state.conn.gates_changed()

    # -- failure detection --------------------------------------------------------

    def _on_retransmission(self, segment: Optional[TCPSegment] = None) -> None:
        """The client retransmitted (``segment``), or a connection of
        this replica did (no argument)."""
        if self.shut_down or self.joining:
            # A joiner replaying the donor's stream retransmits into
            # the void until the splice — that is not a failure.
            return
        self.detector.observe_retransmission()

    def _on_unknown_segment(self, packet, segment: TCPSegment) -> None:
        """Unknown-connection traffic flows past a mid-stream joiner all
        the time while the primary serves it; only a REPEATED sequence
        number — a client retransmission into the void — is a failure
        signal."""
        if self.shut_down or self.joining:
            return
        key = (packet.src, segment.src_port)
        last = self._unknown_last_seq.get(key)
        self._unknown_last_seq[key] = segment.seq
        if len(self._unknown_last_seq) > 512:
            self._unknown_last_seq.clear()
        if last is not None and last == segment.seq and segment.seq_span > 0:
            self.detector.observe_retransmission()

    def _report(self, suspects: list, kind: Optional[str] = None) -> bool:
        """Send failure evidence to the redirector; the one sender for
        every kind.  Whether it went out is returned.  A ``kind`` is
        rate-limited to one report per detector cooldown; the
        retransmission detector's own reports (``kind=None``) are paced
        by the detector."""
        if self.shut_down or self.joining or self.host_server.crashed:
            return False
        if kind is not None:
            now = self.sim.now
            last = self._last_report.get(kind)
            if last is not None and now - last < self.detector.params.cooldown:
                return False
            self._last_report[kind] = now
        self.daemon.report_failure(self.service_ip, self.port, suspects)
        return True

    def _report_failure(self) -> None:
        # A replica gone quiet on the acknowledgement channel while
        # connections are gated on it.
        suspect = self._quiet_member()
        suspects = [] if suspect is None else [suspect]
        if self._report(suspects) and not self.is_primary and not suspects:
            # Client retransmissions with no quiet successor point
            # upstream — the primary is suspect.  Bid for promotion;
            # primary mode still requires the redirector's grant
            # (split-brain prevention, DESIGN.md §9).  The detector's
            # cooldown paces re-bids if the first round gives up.
            self._request_promotion(
                self._pending_promotion
                if self._pending_promotion is not None
                else self.epoch
            )

    def _quiet_member(self) -> Optional[IPAddress]:
        """The first member gone quiet past ``SUCCESSOR_QUIET`` on a
        gated connection, if any."""
        if not self.has_successor:
            return None
        now = self.sim.now
        for state in self.states.values():
            if state.gated:
                suspect = state.members.quiet_member(now, SUCCESSOR_QUIET)
                if suspect is not None:
                    return suspect
        return None

    def _note_lie_evidence(self, suspect: IPAddress) -> None:
        """``suspect``'s progress report failed the plausibility check.
        The report is already discarded; here we escalate: repeated
        lying evidence is reported to the redirector, whose congestion
        rule (several reports against the same suspect inside its
        window) excises the liar via the normal reconfiguration path —
        and once removed, any report the zombie still sends triggers
        the demote fence (DESIGN.md §9)."""
        self.implausible_reports += 1
        # Not via _report_failure: lying evidence names a definite
        # suspect and must never double as a promotion bid.
        if self._report([suspect], "lie"):
            self.lie_reports += 1

    def _liveness_check(self) -> None:
        if self.shut_down or self.host_server.crashed:
            return
        self._liveness_timer.start(LIVENESS_PERIOD)
        if self.joining:
            return
        if self.detector.params.degradation_timeout is not None:
            self._keepalive_announce()
        if not self.has_successor:
            return
        invariants = self.sim.invariants
        if invariants is not None:
            invariants.on_liveness_tick(self)
        if self.detector.params.degradation_timeout is not None:
            self._degradation_check(self.sim.now)
        for state in self.states.values():
            if (
                state.conn.state != TcpState.CLOSED
                and state.blocked_on_successor()
                and state.successor_silence() > SUCCESSOR_QUIET
            ):
                straggler = state.members.straggler
                self._report([straggler] if straggler else [], "liveness")
                return

    def _keepalive_announce(self) -> None:
        """Backup-side ack-channel keepalive (degradation mode only,
        DESIGN.md §14).  Progress reports are otherwise segment-driven,
        which starves the evidence stream exactly when it matters: a
        primary blocked on a wedged successor stops ACKing the client,
        the client's send window fills, no more segments reach the
        backups — and every replica goes quiet on the channel, making a
        wedged-but-alive successor indistinguishable from a crashed one.
        Announcing current progress each liveness tick (only when the
        data path has been idle that long) keeps honest replicas
        observably alive so the zero-progress degradation criterion —
        and the OutputLiveness monitor — can tell the two apart."""
        if self.predecessor_ip is None:
            return
        now = self.sim.now
        for state in self.states.values():
            if state.conn.state == TcpState.CLOSED:
                continue
            last = state.last_report_sent
            if last is not None and now - last < LIVENESS_PERIOD:
                continue
            state.announce()

    def _degradation_check(self, now: float) -> None:
        """Graceful degradation (DESIGN.md §14): a successor that keeps
        *talking* on the acknowledgement channel — so the quiet-based
        check never fires — while our output stays blocked on it and its
        watermarks make *zero progress* past ``degradation_timeout`` is
        a wedged or lying gray failure.  The progress requirement is the
        load-shedding guard: a merely slow (or saturated) successor
        still advances the effective watermarks (``state.members``)
        every tick, which resets the stall clock, so honest congestion is
        never excised.  A truly wedged one is reported to the redirector;
        the congestion rule then excises it from the chain (the recovery
        manager's spare pool restores the replication degree via the
        live-join splice)."""
        timeout = self.detector.params.degradation_timeout
        reported = False
        for key, state in self.states.items():
            stalled = (
                state.conn.state != TcpState.CLOSED and state.blocked_on_successor()
            )
            if not stalled:
                self._blocked.pop(key, None)
                continue
            members = state.members
            marks = (members.sent, members.deposited)
            since, seen = self._blocked.get(key, (now, None))
            if seen != marks:
                # Watermarks advanced (or first stalled tick): restart
                # the zero-progress clock.
                self._blocked[key] = (now, marks)
                continue
            if reported or now - since <= timeout:
                continue
            if members.straggler is None or state.successor_silence() > SUCCESSOR_QUIET:
                continue  # silent successor: the classic path handles it
            if self._report([members.straggler], "degradation"):
                self.degradation_reports += 1
                reported = True

    # -- live join (recovery subsystem, EXTENSION) ----------------------------

    def begin_catchup_feed(self, joiner_ip) -> None:
        """Donor side of a live join: send a base snapshot of every
        transferable in-flight connection to ``joiner_ip``, then keep
        forwarding every subsequent deposit as a delta until the chain
        splice arrives.  The overlap with the multicast traffic the
        joiner starts receiving at splice time is harmless — the
        reassembler clips duplicate bytes.

        The base transfer is chunked: the first chunk of each log goes
        in the base snapshot, the rest follow as individual delta
        messages (absolute offsets, so the unordered mgmt layer is
        fine).  Every piece carries ``input_total`` so the joiner knows
        when it has the whole cut."""
        if self.shut_down:
            return
        from repro.recovery.state_transfer import snapshot_connections

        joiner_ip = as_address(joiner_ip)
        snaps, keys = snapshot_connections(self)
        self._catchup_feeds[joiner_ip] = keys
        chunk = DEFAULT_CATCHUP_CHUNK
        base_conns = []
        tail_chunks = []
        for s in snaps:
            total = len(s.input)
            base_conns.append(
                replace(s, input=s.input[:chunk], input_total=total)
            )
            for off in range(chunk, total, chunk):
                tail_chunks.append(
                    replace(
                        s,
                        input=s.input[off : off + chunk],
                        input_start=off,
                        input_total=total,
                    )
                )
        snapshot = StateSnapshot(
            service_ip=self.service_ip,
            port=self.port,
            donor_ip=self.host_server.ip,
            conns=tuple(base_conns),
            delta=False,
            epoch=self.epoch,
        )
        self.daemon.send_snapshot(snapshot, joiner_ip)
        self.snapshots_sent += 1
        # Ack-clocked window over the tail chunks: dumping the whole
        # base transfer into the socket at once overflows the drop-tail
        # queue on the donor's uplink, which loses snapshot pieces AND
        # the donor's own pongs/reports — a live donor under transfer
        # then reads as dead to the redirector's probe.  Keeping only a
        # few chunks in flight self-paces the transfer to the path.
        queue = list(reversed(tail_chunks))
        self._catchup_queues[joiner_ip] = queue
        self._pump_catchup(joiner_ip, queue, [0])

    def _pump_catchup(self, joiner_ip, queue: list, in_flight: list) -> None:
        """Send tail chunks of a live feed while fewer than
        ``CATCHUP_WINDOW`` are unsettled (``in_flight[0]``).  Bound
        methods, so that no closure cycle holds the port after teardown."""
        if self.shut_down or self._catchup_queues.get(joiner_ip) is not queue:
            return
        settled = partial(self._catchup_settled, joiner_ip, queue, in_flight)
        while queue and in_flight[0] < CATCHUP_WINDOW:
            piece = queue.pop()
            in_flight[0] += 1
            self._send_delta(piece, joiner_ip, on_settled=settled)

    def _catchup_settled(self, joiner_ip, queue: list, in_flight: list) -> None:
        in_flight[0] -= 1
        self._pump_catchup(joiner_ip, queue, in_flight)

    def _send_delta(self, piece: ConnSnapshot, joiner_ip, on_settled=None) -> None:
        """Ship one catch-up piece: a chunk of the base transfer or a
        deposit made since."""
        delta = StateSnapshot(self.service_ip, self.port, self.host_server.ip, (piece,), delta=True)
        self.daemon.send_snapshot(delta, joiner_ip, on_settled=on_settled)

    def end_catchup_feed(self, joiner_ip) -> None:
        joiner_ip = as_address(joiner_ip)
        self._catchup_feeds.pop(joiner_ip, None)
        self._catchup_queues.pop(joiner_ip, None)

    def _forward_delta(self, state: FtConnectionState, start: int, data: bytes) -> None:
        """Forward one deposit to every joiner catching up on this
        connection (closes the gap between base snapshot and splice)."""
        if not self._catchup_feeds or self.shut_down:
            return
        conn = state.conn
        key = (conn.remote_ip, conn.remote_port)
        for joiner_ip, keys in self._catchup_feeds.items():
            if key in keys:
                self._send_delta(state.snapshot(start, data), joiner_ip)

    def install_base_snapshot(self, snapshot: StateSnapshot) -> None:
        """Joiner side: install the donor's base snapshot (synthesize
        the connections, replay the first chunk of each client stream
        through the local server program).  JoinReady follows once the
        remaining chunks have arrived and every installed connection's
        contiguous stream reaches the base cut."""
        if self.shut_down:
            return
        from repro.recovery import state_transfer

        keys = state_transfer.install_snapshot(self, snapshot)
        self.catchup_bytes_received += sum(len(c.input) for c in snapshot.conns)
        for conn_snap in snapshot.conns:
            key = conn_snap.client_key
            if key in keys or key in self.states:
                target = conn_snap.input_total
                if target < 0:
                    target = conn_snap.input_start + len(conn_snap.input)
                self._catchup_targets[key] = target
        self._base_installed = True
        self._maybe_join_ready()

    def apply_delta(self, snapshot: StateSnapshot) -> None:
        """Joiner side: apply an incremental catch-up piece (a chunk of
        the base transfer or a post-snapshot deposit).  The reliable
        mgmt layer is unordered, so a piece can outrun the base
        snapshot — park it until the connection is installed."""
        if self.shut_down:
            return
        from repro.recovery import state_transfer

        for conn_snap in snapshot.conns:
            self.catchup_bytes_received += len(conn_snap.input)
            if conn_snap.client_key in self.states:
                state_transfer.apply_delta(self, conn_snap)
            else:
                pending = self._pending_deltas.setdefault(conn_snap.client_key, [])
                if len(pending) < 256:
                    pending.append(conn_snap)
        self._maybe_join_ready()

    def _maybe_join_ready(self) -> None:
        """Send JoinReady exactly once, when the base snapshot is in
        and every installed connection has caught up to its cut."""
        if not self.joining or not self._base_installed or self._join_ready_sent:
            return
        for key, target in self._catchup_targets.items():
            state = self.states.get(key)
            if state is None or state.catchup_log.size < target:
                return
        self._join_ready_sent = True
        self.daemon.join_ready(
            self.service_ip,
            self.port,
            tuple(self._catchup_targets.keys()),
            bytes_received=self.catchup_bytes_received,
        )

    def apply_chain_splice(self, splice: ChainSplice) -> None:
        """Second phase of the two-phase cut-over.  The same message
        goes to the old tail (start gating the transferred connections
        on the joiner) and to the joiner (you are live: here is your
        predecessor, announce your progress)."""
        if self.shut_down:
            return
        joiner_ip = as_address(splice.joiner_ip)
        if self.host_server.ip == joiner_ip:
            self.joining = False
            self.predecessor_ip = as_address(splice.predecessor_ip)
            self._pending_deltas.clear()
            for raw_key in splice.conn_keys:
                key = (as_address(raw_key[0]), raw_key[1])
                state = self.states.get(key)
                if state is not None:
                    state.announce()
        else:
            # Old tail: the joiner holds live state for exactly the
            # listed connections — gate those (and only those) on it.
            self.end_catchup_feed(joiner_ip)
            self.has_successor = True
            for raw_key in splice.conn_keys:
                key = (as_address(raw_key[0]), raw_key[1])
                state = self.states.get(key)
                if state is not None:
                    state.members.splice(state, joiner_ip)

    # -- reconfiguration -------------------------------------------------------------

    def apply_chain_update(self, update: ChainUpdate) -> None:
        """React to the redirector's view of the chain (paper §4.4).

        Epoch/seq gate the unordered mgmt layer: a layout older than
        one already applied is discarded.  A backup named primary does
        NOT flip modes here — it bids for a :class:`PromotionGrant`
        and promotes only when the grant arrives (DESIGN.md §9)."""
        if self.shut_down:
            return
        stamp = (update.epoch, update.seq)
        if stamp < self._chain_stamp:
            return  # stale layout overtaken by a newer push
        self._chain_stamp = stamp
        old_predecessor = self.predecessor_ip
        self.predecessor_ip = update.predecessor_ip
        self.has_successor = update.has_successor
        if update.is_primary:
            if self.is_primary:
                if update.epoch > self.epoch:
                    # Still the primary but the view advanced past us
                    # (registration race): re-run the grant handshake
                    # to adopt the new epoch — until then our stamps
                    # are stale and the fence holds our output.
                    self._request_promotion(update.epoch)
            else:
                self._request_promotion(update.epoch)
        else:
            if update.epoch >= self.epoch:
                self.epoch = update.epoch
                self._pending_promotion = None
                if self.is_primary:
                    # A newer view names us backup: step down in place
                    # (we stay a chain member, unlike a Demote).
                    self.mode = PortMode.BACKUP
                    self.demotions += 1
        # Membership consequences (who gates on whom now) belong to
        # the strategy — every backend ungates when no successor is
        # left, a star backend also reconciles its member views.
        self.strategy.on_chain_update(update, old_predecessor)
        for state in list(self.states.values()):
            state.conn.gates_changed()

    def _request_promotion(self, epoch: int) -> None:
        """Ask the redirector for the right to lead ``epoch``; primary
        mode comes only with its grant (:meth:`apply_promotion_grant`)."""
        self._pending_promotion = epoch
        self.daemon.request_promotion(self.service_ip, self.port, epoch)

    def apply_promotion_grant(self, grant: PromotionGrant) -> None:
        """The redirector granted us ``grant.epoch`` — enter primary
        mode (or, if already primary, adopt the granted epoch)."""
        if self.shut_down:
            return
        if self._pending_promotion is None and not self.is_primary:
            return  # unsolicited (a stale retry) — ignore
        if grant.epoch < self.epoch:
            return
        self._enter_primary(grant.epoch)

    def _enter_primary(self, epoch: int) -> None:
        self._pending_promotion = None
        self.epoch = max(self.epoch, epoch)
        if not self.is_primary:
            self.mode = PortMode.PRIMARY
            self.promotions += 1
            invariants = self.sim.invariants
            if invariants is not None:
                invariants.on_promotion(self)
        self.strategy.on_enter_primary()
        for state in list(self.states.values()):
            state.conn.kick()

    def apply_demote(self, message: Demote) -> None:
        """Fenced off: a view newer than ours exists and we were still
        acting on the old one.  Fail-stop locally — go silent, kill our
        (stale) connections — and hand the node back through
        ``on_demoted`` so the recovery subsystem can wipe it and rejoin
        it as a backup via the live-join path."""
        if self.shut_down or self.joining:
            # A joiner is a *fresh* actor, not a stale one: a late
            # Demote retry aimed at this node's previous incarnation
            # must not kill the catch-up.
            return
        if message.epoch <= self.epoch:
            # Not provably stale: the granted primary of the current
            # epoch (or a freshly rejoined backup) ignores late
            # Demote retries from before its promotion/rejoin.
            return
        self.demotions += 1
        self.mode = PortMode.BACKUP
        self._pending_promotion = None
        self.shutdown()
        if self.on_demoted is not None:
            self.on_demoted()

    def shutdown(self) -> None:
        """Fail-stop: removed from the replica set, go silent."""
        if self.shut_down:
            return
        self.shut_down = True
        self._liveness_timer.stop()
        self.strategy.on_shutdown()
        if self.listener is not None:
            # Stay bound but refuse (silently): a closed listener would
            # let the stack RST the service's clients, breaking the
            # required fail-stop silence.
            self.listener.accept_new = False
            self.listener.on_accept = None
        self.ack_endpoint.unregister(self.service_ip, self.port)
        for state in list(self.states.values()):
            state.conn.kill_silently()
            state.conn.dispose()  # dropped from the table: nobody else will
        self.states.clear()
        self._catchup_feeds.clear()
        self._catchup_queues.clear()
        self._pending_deltas.clear()
        self._catchup_targets.clear()

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): connections, and what points back here."""
        for state in self.states.values():
            state.conn.dispose()
        self.states = {}
        self.ack_endpoint.unregister(self.service_ip, self.port)
        self.strategy.port = self.strategy.timer = self.detector.on_failure = None
        self.listener = self._liveness_timer = self.on_demoted = self.daemon = None


#: The per-port management messages, and how the port they name takes
#: each.  Called through the port instance, so a method patched on
#: :class:`FtPort` is the one that runs.
_PORT_MESSAGES: dict[type, Callable[[FtPort, object], None]] = {
    ChainUpdate: lambda port, m: port.apply_chain_update(m),
    Shutdown: lambda port, m: port.shutdown(),
    JoinRequest: lambda port, m: port.begin_catchup_feed(m.joiner_ip),
    StateSnapshot: lambda port, m: (
        port.apply_delta(m) if m.delta else port.install_base_snapshot(m)
    ),
    ChainSplice: lambda port, m: port.apply_chain_splice(m),
    PromotionGrant: lambda port, m: port.apply_promotion_grant(m),
    Demote: lambda port, m: port.apply_demote(m),
}


class FtStack:
    """All replicated ports of one host server, plus daemon wiring."""

    def __init__(
        self,
        host_server: "HostServer",
        ack_endpoint: AckChannelEndpoint,
        daemon: "HostServerDaemon",
    ):
        self.host_server = host_server
        self.ack_endpoint = ack_endpoint
        self.daemon = daemon
        self.ports: dict[tuple[IPAddress, int], FtPort] = {}
        daemon.handlers.update(dict.fromkeys(_PORT_MESSAGES, self._dispatch_to_port))

    def listen_replicated(
        self,
        service_ip,
        port: int,
        mode: PortMode,
        detector: DetectorParams,
        strategy: str,
        on_accept: Callable[[TcpConnection], None],
        tcp_options: Optional["TcpOptions"],
        joining: bool,
        retain_streams: bool,
    ) -> FtPort:
        """Bind a server program to a replicated port under the virtual
        host of ``service_ip``: the paper's ``setportopt(port, mode,
        detector-parameters)`` and the program's ``bind()`` in one call.
        ``strategy`` selects the replication backend (DESIGN.md §15);
        ``retain_streams`` is the service's client-stream retention.

        With ``joining=True`` the port comes up as a live joiner: it
        does not register with the redirector (staying out of the
        multicast set and the chain) and mutes its failure detector
        until the recovery manager splices it in."""
        key = (as_address(service_ip), port)
        if key in self.ports:
            raise FtError(f"service {key[0]}:{port} already bound")
        ft_port = FtPort(
            self.host_server,
            key[0],
            port,
            mode,
            detector,
            strategy,
            joining,
            retain_streams,
            self.ack_endpoint,
            self.daemon,
        )
        ft_port.bind(on_accept, tcp_options)
        self.ports[key] = ft_port
        return ft_port

    def decommission(self, service_ip, port: int) -> None:
        """Tear down a replica's local state for a service (used when a
        recovered server re-joins: its pre-crash TCP state is stale and
        must never reach a client)."""
        key = (as_address(service_ip), port)
        ft_port = self.ports.pop(key, None)
        if ft_port is not None:
            ft_port.shutdown()
            if ft_port.listener is not None:
                # Free the binding for the replacement FtPort.
                ft_port.listener.close()
            ft_port.dispose()

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): ports."""
        for ft_port in self.ports.values():
            ft_port.dispose()

    def _dispatch_to_port(self, message, src_ip: IPAddress) -> None:
        """Hand a per-port management message to the port it names."""
        ft_port = self.ports.get((as_address(message.service_ip), message.port))
        if ft_port is not None:
            _PORT_MESSAGES[type(message)](ft_port, message)
