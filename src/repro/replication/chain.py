"""The paper's daisy chain (§4.1, §4.4) as a replication strategy.

Chain semantics: replica ``Si`` gates deposits and output on the
single successor ``S(i+1)``; a backup's filtered output turns into a
progress report on the acknowledgement channel toward the
*predecessor*; the redirector lays replicas out linearly.

What a connection waits on is its
:class:`~repro.replication.members.MemberTable` with at most one view:
the linear layout makes it follow whichever replica reports, so this
class holds only the report cadence: one report per filtered segment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tcp.seqnum import seq_add

from .base import ReplicationStrategy

if TYPE_CHECKING:
    from repro.core.ft_tcp import FtConnectionState
    from repro.netsim.packet import TCPSegment


class ChainStrategy(ReplicationStrategy):
    """Daisy-chain replication: one successor per replica."""

    name = "chain"
    layout = "linear"

    # -- replica output ------------------------------------------------------

    def filter_backup_output(
        self, state: "FtConnectionState", segment: "TCPSegment"
    ) -> bool:
        if self.port.predecessor_ip is not None:
            state.report(
                seq_add(segment.seq, segment.seq_span), segment.ack if segment.has_ack else 0
            )
        return True
