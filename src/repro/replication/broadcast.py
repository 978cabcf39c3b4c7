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

Each connection's member table holds one view per backup (the star
layout); this class keeps those views in step
with the redirector's replica list and arms the promotion fence at
promotion (DESIGN.md §15.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.addressing import as_address

from .base import ReplicationStrategy
from .chain import ChainStrategy

if TYPE_CHECKING:
    from repro.netsim.addressing import IPAddress


class BroadcastStrategy(ReplicationStrategy):
    """All-ack uniform broadcast: primary gates on min across backups."""

    name = "broadcast"
    layout = "star"

    def __init__(self, port):
        super().__init__(port)
        #: Latest full replica list from the redirector (primary first).
        self.replicas: tuple["IPAddress", ...] = ()

    # -- replica output ------------------------------------------------------

    # A star backup reports exactly like a chain backup — the
    # predecessor just happens to always be the primary.
    filter_backup_output = ChainStrategy.filter_backup_output

    # -- membership --------------------------------------------------------

    def gating_targets(self) -> tuple["IPAddress", ...]:
        me = self.port.host_server.ip
        return tuple(ip for ip in self.replicas if ip != me)

    def on_chain_update(self, update, old_predecessor) -> None:
        super().on_chain_update(update, old_predecessor)
        port = self.port
        if update.members:
            self.replicas = tuple(as_address(m) for m in update.members)
        targets = set(self.gating_targets())
        for state in port.states.values():
            state.members.keep_only(targets)
            state.members.refresh(state)
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

    def on_enter_primary(self) -> None:
        """A promoted backup starts gating its connections on every
        remaining member.  Views start at zero watermarks — the
        backups' announce-on-new-predecessor (see
        :meth:`on_chain_update`) heals the momentary stall."""
        targets = self.gating_targets()
        for state in self.port.states.values():
            members = state.members
            for ip in targets:
                # Not silence: give every member a full quiet period
                # under the new view before suspecting it.
                members.admit(state, ip)
            members.keep_only(targets)
            state.gated = bool(members.views)
            if state.gated:
                # Arm the promotion fence at the watermarks this
                # replica already reached while depositing ungated.
                conn = state.conn
                members.fence = (conn.snd_nxt, conn.reassembler.take_point)
            members.refresh(state)
