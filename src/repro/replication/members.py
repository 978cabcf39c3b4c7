"""The member table: what one connection's gates wait on (DESIGN.md §15.1).

The paper's gate (§4.1) is "replica ``Si`` deposits and emits byte
``k`` only once its successor reported ``>= k``"; the all-ack star
takes the minimum of that watermark over every backup.  Either way a
gated connection keeps, per *member* it waits on, the progress that
member last reported, and gates on the member-wise minimum.  This
module is that bookkeeping, once, for every backend:

* a chain table holds at most one view — the successor's.  It admits
  whichever replica reports: a new sender takes the view over, its
  watermarks carried, its epoch restarted.  Empty, it means "not heard
  yet" and the connection stays gated;
* a star table holds one view per gating target.  It admits nobody
  else, and a table emptied by membership ungates the connection.

The backend's ``ReplicationStrategy.layout`` says which: ``"linear"``
is the chain, ``"star"`` the star.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Optional

from repro.tcp.seqnum import seq_add, seq_diff

if TYPE_CHECKING:
    from repro.core.ack_channel import AckChannelMessage
    from repro.core.ft_tcp import FtConnectionState
    from repro.netsim.addressing import IPAddress

#: Watermark-plausibility slack (DESIGN.md §14).  A member's honest
#: progress can lead this replica's local view by in-flight window
#: amounts (at most a receive window ≈ 64 kB each way); a claim beyond
#: local knowledge plus this slack is provably impossible and treated
#: as lying evidence.  Generous enough that no honest skew ever trips
#: it, small enough that a meaningful lie (such as a 1 MB inflation)
#: cannot hide inside it.
PROGRESS_SLACK = 256 * 1024


class MemberView:
    """One member's reported progress on one connection, in stream
    offsets, with the highest epoch it stamped and when it was last
    heard.  ``name`` is the member's address as a string, the
    straggler tie-break; ``MemberTable.admit`` sets it."""

    __slots__ = ("sent", "deposited", "epoch", "last_msg", "name")

    def __init__(self):
        self.sent = 0
        self.deposited = 0
        self.epoch = 0
        self.last_msg = 0.0


class MemberTable:
    """Per-connection views of the members a connection is gated on,
    the effective watermarks derived from them, and the promotion
    fence.  ``FtConnectionState.members``; every method takes the
    owning state (the table keeps no reference back to it)."""

    __slots__ = ("views", "sent", "deposited", "straggler", "last_heard", "fence")

    def __init__(self):
        self.views: dict["IPAddress", MemberView] = {}
        #: Effective watermarks: the member-wise minimum while gated.
        self.sent = 0
        self.deposited = 0
        #: The member those watermarks wait on (tie-break: least
        #: ``sent + deposited``, then ``str(ip)``), and when it was last
        #: heard; ``None`` until a member exists.
        self.straggler: Optional["IPAddress"] = None
        self.last_heard: Optional[float] = None
        #: Promotion fence: ``(sent, deposited)`` this replica had
        #: already reached — ungated — when it became a gated primary.
        #: Client-visible output is held until the effective watermarks
        #: cover both (``fence_holds``).  Armed by star backends only.
        self.fence: Optional[tuple[int, int]] = None

    # -- membership ------------------------------------------------------

    def admit(self, state: "FtConnectionState", ip: "IPAddress") -> MemberView:
        """Gate on ``ip`` from now on and give it a full quiet period.
        A chain's one view follows a new successor, watermarks and
        epoch carried; a star adds a fresh view."""
        port = state.port
        views = self.views
        view = views.get(ip)
        if view is None:
            if views and port.strategy.layout == "linear":
                view = views.popitem()[1]
            else:
                view = MemberView()
            views[ip] = view
            view.name = str(ip)
        view.last_msg = port.sim.now
        return view

    def keep_only(self, targets: Container["IPAddress"]) -> None:
        """Forget every member not in ``targets``."""
        views = self.views
        for ip in [ip for ip in views if ip not in targets]:
            del views[ip]

    def splice(self, state: "FtConnectionState", joiner_ip: "IPAddress") -> None:
        """A live joiner now holds state for this connection: gate on it."""
        was_gated = state.gated
        state.gated = True
        self.admit(state, joiner_ip)
        port = state.port
        if not was_gated and port.strategy.layout == "star" and port.is_primary:
            # In the star layout the spliced port is the (client-
            # visible) primary.  If it ran ungated until now, its
            # acknowledgements lead the joiner's catch-up cut by
            # whatever deltas are still in flight — fence output until
            # the joiner's claims cover the pre-splice watermarks.
            conn = state.conn
            self.fence = (conn.snd_nxt, conn.reassembler.take_point)
        self.refresh(state)

    # -- progress reports --------------------------------------------------

    def report(
        self,
        state: "FtConnectionState",
        message: "AckChannelMessage",
        sender: "IPAddress",
    ) -> None:
        """Fold one acknowledgement-channel report from ``sender`` in."""
        port = state.port
        view = self.views.get(sender)
        if view is None:
            if port.strategy.layout == "star":
                # Not a replica this connection is gated on (a fenced
                # stale member, or a joiner that never held state for
                # this connection): its claims must not widen nor
                # narrow the gate.
                return
            view = self.admit(state, sender)
            view.epoch = 0  # epochs are only comparable per sender
        else:
            view.last_msg = port.sim.now
        if message.epoch < view.epoch:
            # A report from a view the member itself has already left
            # (delayed or re-queued in flight): acting on it could
            # regress our notion of a *different* view's progress.
            port.stale_epoch_dropped += 1
        else:
            view.epoch = message.epoch
            conn = state.conn
            sent = seq_diff(message.seq_next, seq_add(conn.iss, 1))
            deposited = seq_diff(message.ack, seq_add(conn.irs, 1))
            if (
                deposited > conn.reassembler.in_order_end + PROGRESS_SLACK
                or sent > conn.send_buffer.end + PROGRESS_SLACK
            ):
                # Progress beyond what the client can possibly have
                # produced (the member deposits the same stream we see
                # and computes the same deterministic response): lying
                # evidence against the sender, never applied.
                # Regressions need no check — the monotone max below
                # ignores them.
                port._note_lie_evidence(sender)
            else:
                invariants = port.sim.invariants
                if invariants is not None:
                    # Accepted reports only: the monitors' view must
                    # mirror what this replica actually acts on.
                    invariants.on_successor_report(
                        state, message.seq_next, message.ack, sender
                    )
                if sent > view.sent:
                    view.sent = sent
                if deposited > view.deposited:
                    view.deposited = deposited
        self.refresh(state)

    def refresh(self, state: "FtConnectionState") -> None:
        """Recompute the effective watermarks and the straggler, then
        push the gates — so the gates, quiet checks, degradation clock
        and OutputLiveness all read one place."""
        if state.gated:
            straggler = None
            for ip, view in self.views.items():
                s, d = view.sent, view.deposited
                if straggler is None:
                    sent, deposited, straggler, least, slow = s, d, ip, s + d, view
                    continue
                if s < sent:
                    sent = s
                if d < deposited:
                    deposited = d
                if s + d < least or (s + d == least and view.name < slow.name):
                    straggler, least, slow = ip, s + d, view
            if straggler is not None:
                self.sent, self.deposited = sent, deposited
                self.straggler, self.last_heard = straggler, slow.last_msg
            elif state.port.strategy.layout == "star":
                # Every gating member left the set: the gate would never
                # open again, so this connection runs ungated.
                state.gated = False
        state.push_gates()

    # -- suspicion and the promotion fence ----------------------------------

    def quiet_member(self, now: float, quiet: float) -> Optional["IPAddress"]:
        """The first member not heard from for more than ``quiet``."""
        for ip, view in self.views.items():
            if now - view.last_msg > quiet:
                return ip
        return None

    def fence_holds(self, state: "FtConnectionState") -> bool:
        """Whether the armed promotion fence still holds client-visible
        output back (DESIGN.md §15.3); lifts it once it no longer does.

        A star backup deposits ungated, so at promotion its TCP
        acknowledgement state can lead every member's claims: the first
        retransmitted segment would tell the client to discard bytes a
        surviving member has not confirmed yet.  Everything the client
        *already* discarded was min-gated by the old primary, so the
        members converge to the fence through the client's own
        retransmissions — a bounded stall, not a deadlock."""
        fence = self.fence
        if state.gated and self.views and (self.sent < fence[0] or self.deposited < fence[1]):
            return True
        self.fence = None
        return False
