"""Uniform-broadcast replication (Hydra-style, PAPERS.md).

Star layout: the redirector's multicast already delivers every client
segment to every replica, so instead of chaining the replicas, each
backup hangs directly off the primary — it deposits immediately (no
successor to wait for) and its filtered output becomes a progress
report straight to the primary, exactly like a chain backup's.  The
primary gates deposits and output on the *member-wise minimum*
watermark across all backups (an all-ack watermark: output byte ``k``
externalizes only once every backup has reported sequence ≥ ``k``),
which collapses the chain's N serial report hops into one parallel
hop.

Effective-watermark contract (see :mod:`repro.replication.base`):
``state.successor_*_upto`` hold the minimum across members and
``state.successor_ip`` names the straggler, so the quiet check, the
graceful-degradation clock, and the OutputLiveness monitor all
incriminate the right replica with no chain-specific code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.ack_channel import AckChannelMessage
from repro.netsim.addressing import as_address
from repro.tcp.seqnum import seq_add, seq_diff

from .base import ReplicationStrategy, register_strategy
from .chain import ChainStrategy

if TYPE_CHECKING:
    from repro.core.ft_tcp import FtConnectionState
    from repro.netsim.addressing import IPAddress
    from repro.netsim.packet import TCPSegment


class _MemberView:
    """One backup's reported progress on one connection."""

    __slots__ = ("sent", "deposited", "epoch", "last_msg")

    def __init__(self, last_msg: float):
        self.sent = 0
        self.deposited = 0
        self.epoch = 0
        self.last_msg = last_msg


class _BroadcastConnState:
    """Per-connection member views (stored as ``state.repl``)."""

    __slots__ = ("views", "fence")

    def __init__(self):
        self.views: dict["IPAddress", _MemberView] = {}
        # Promotion fence: ``(sent, deposited)`` watermarks this
        # replica had already reached — ungated — when it became
        # primary.  Client-visible output stays suppressed until the
        # member-wise minimum claims cover both (see
        # ``suppress_primary_output``).
        self.fence: Optional[tuple[int, int]] = None


@register_strategy
class BroadcastStrategy(ReplicationStrategy):
    """All-ack uniform broadcast: primary gates on min across backups."""

    name = "broadcast"
    layout = "star"

    def __init__(self, port):
        super().__init__(port)
        #: Latest full replica list from the redirector (primary first).
        self.members: tuple["IPAddress", ...] = ()

    # -- membership helpers ------------------------------------------------

    def _gating_targets(self) -> tuple["IPAddress", ...]:
        me = self.port.host_server.ip
        return tuple(ip for ip in self.members if ip != me)

    # -- lifecycle ---------------------------------------------------------

    def connection_state(self, state: "FtConnectionState") -> _BroadcastConnState:
        blob = _BroadcastConnState()
        state.repl = blob  # _refresh reads it; the caller re-assigns identically
        if state.gated:
            now = self.port.sim.now
            for ip in self._gating_targets():
                blob.views[ip] = _MemberView(last_msg=now)
            self._refresh(state)
        return blob

    # -- replica output / progress reports ---------------------------------

    # A star backup reports exactly like a chain backup — the
    # predecessor just happens to always be the primary.
    filter_backup_output = ChainStrategy.filter_backup_output

    def suppress_primary_output(
        self, state: "FtConnectionState", segment: "TCPSegment"
    ) -> bool:
        # Promotion fence.  A star backup deposits ungated, so at
        # promotion its TCP acknowledgement state can lead every
        # member's claims: the first retransmitted segment would tell
        # the client to discard bytes a surviving member has not
        # confirmed yet.  Everything the client *already* discarded was
        # min-gated by the old primary (every member claimed it), so
        # the members converge to the fence purely through the client's
        # own retransmissions — the fence is a bounded stall, not a
        # deadlock.
        blob = state.repl
        fence = blob.fence
        if fence is None:
            return False
        if not state.gated or not blob.views:
            blob.fence = None
            return False
        if (
            state.successor_sent_upto >= fence[0]
            and state.successor_deposited_upto >= fence[1]
        ):
            blob.fence = None
            return False
        return True

    def on_report(
        self,
        state: "FtConnectionState",
        message: AckChannelMessage,
        sender: "IPAddress",
    ) -> None:
        blob = state.repl
        view = blob.views.get(sender)
        if view is None:
            # Not a replica this connection is gated on (a fenced
            # stale member, or a joiner that never held state for this
            # connection): its claims must not widen nor narrow the
            # gate.
            return
        view.last_msg = self.port.sim.now
        self._apply_member(state, view, sender, message)
        self._refresh(state)

    def _apply_member(
        self,
        state: "FtConnectionState",
        view: _MemberView,
        sender: "IPAddress",
        message: AckChannelMessage,
    ) -> None:
        conn = state.conn
        port = self.port
        if message.epoch < view.epoch:
            # A report from a view the member itself has already left.
            port.stale_epoch_dropped += 1
            return
        view.epoch = message.epoch
        sent = seq_diff(message.seq_next, seq_add(conn.iss, 1))
        deposited = seq_diff(message.ack, seq_add(conn.irs, 1))
        if state.validate_progress and not state._progress_plausible(sent, deposited):
            # Lying evidence names the actual sender, not whichever
            # member currently happens to be the straggler.
            port._note_lie_evidence(state, suspect=sender)
            return
        invariants = port.sim.invariants
        if invariants is not None:
            invariants.on_successor_report(
                state, message.seq_next, message.ack, claimant=sender
            )
        if sent > view.sent:
            view.sent = sent
        if deposited > view.deposited:
            view.deposited = deposited

    def _refresh(self, state: "FtConnectionState") -> None:
        """Recompute the effective (minimum) watermarks, name the
        straggler and push the gates, so all successor-generic
        machinery — gates, quiet checks, degradation clock,
        OutputLiveness — just works."""
        views = state.repl.views
        if state.gated and not views:
            # Every gating member left the set: the gate would never
            # open again, so this connection runs ungated (mirrors the
            # chain's successor-left ungating).
            state.gated = False
        if state.gated:
            state.successor_sent_upto = min(v.sent for v in views.values())
            state.successor_deposited_upto = min(v.deposited for v in views.values())
            straggler = min(
                views, key=lambda ip: (views[ip].sent + views[ip].deposited, str(ip))
            )
            state.successor_ip = straggler
            state.last_successor_msg = views[straggler].last_msg
        state.push_gates()

    # -- suspicion ---------------------------------------------------------

    def quiet_successor(self) -> Optional["IPAddress"]:
        port = self.port
        if not port.has_successor:
            return None
        quiet = port.detector_params.successor_quiet
        now = port.sim.now
        for state in port.states.values():
            if not state.gated:
                continue
            for ip, view in state.repl.views.items():
                last = view.last_msg if view.last_msg is not None else state.created_at
                if now - last > quiet:
                    return ip
        return None

    # -- membership --------------------------------------------------------

    def on_chain_update(self, update, had_successor, old_predecessor) -> None:
        port = self.port
        if update.members:
            self.members = tuple(as_address(m) for m in update.members)
        targets = set(self._gating_targets())
        for state in port.states.values():
            blob = state.repl
            for ip in [ip for ip in blob.views if ip not in targets]:
                del blob.views[ip]
            if not port.has_successor:
                state.gated = False
            self._refresh(state)
        if (
            not update.is_primary
            and port.predecessor_ip is not None
            and port.predecessor_ip != old_predecessor
        ):
            # Report target changed (typically: a fail-over put a new
            # primary in charge, whose member views start at zero) —
            # announce current progress on every connection so the new
            # primary's gates open without waiting for client traffic.
            for state in list(port.states.values()):
                state.announce()

    def splice_gate(self, state: "FtConnectionState", joiner_ip: "IPAddress") -> None:
        was_gated = state.gated
        state.gated = True
        blob = state.repl
        view = blob.views.get(joiner_ip)
        if view is None:
            blob.views[joiner_ip] = _MemberView(last_msg=self.port.sim.now)
        else:
            view.last_msg = self.port.sim.now
        if not was_gated and self.port.is_primary:
            # In the star layout the spliced port is the (client-
            # visible) primary.  If it ran ungated until now, its
            # acknowledgements lead the joiner's catch-up cut by
            # whatever deltas are still in flight — fence output until
            # the joiner's claims cover the pre-splice watermarks.
            conn = state.conn
            blob.fence = (conn.snd_nxt, conn.reassembler.take_point)
        self._refresh(state)

    def on_enter_primary(self) -> None:
        """A promoted backup starts gating its connections on every
        remaining member.  Views start at zero watermarks — the
        backups' announce-on-new-predecessor (see
        :meth:`on_chain_update`) heals the momentary stall."""
        port = self.port
        targets = self._gating_targets()
        now = port.sim.now
        for state in port.states.values():
            blob = state.repl
            for ip in targets:
                view = blob.views.get(ip)
                if view is None:
                    blob.views[ip] = _MemberView(last_msg=now)
                else:
                    # Not silence: give every member a full quiet
                    # period under the new view before suspecting it.
                    view.last_msg = now
            for ip in [ip for ip in blob.views if ip not in targets]:
                del blob.views[ip]
            state.gated = bool(blob.views)
            if state.gated:
                # Arm the promotion fence at the watermarks this
                # replica already reached while depositing ungated.
                conn = state.conn
                blob.fence = (conn.snd_nxt, conn.reassembler.take_point)
            self._refresh(state)
