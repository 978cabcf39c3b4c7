"""The paper's daisy chain (§4.1, §4.4) as a replication strategy.

This is a *behavior-preserving extraction* of the replication
mechanics that used to be hard-wired into
:mod:`repro.core.ft_tcp` — the refactor's hard equality gate is that
every deterministic fingerprint (Figure 4 metrics, the committed fuzz
reproducer corpus) stays byte-identical, so the bodies below are the
original ones verbatim, reached through one extra delegation hop.

Chain semantics: replica ``Si`` gates deposits and output on the
single successor ``S(i+1)``; a backup's filtered output turns into a
progress report on the acknowledgement channel toward the
*predecessor*; the redirector lays replicas out linearly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.ack_channel import AckChannelMessage
from repro.tcp.seqnum import seq_add

from .base import ReplicationStrategy, register_strategy

if TYPE_CHECKING:
    from repro.core.ft_tcp import FtConnectionState
    from repro.netsim.addressing import IPAddress
    from repro.netsim.packet import TCPSegment


@register_strategy
class ChainStrategy(ReplicationStrategy):
    """Daisy-chain replication: one successor per replica."""

    name = "chain"
    layout = "linear"

    # -- replica output / progress reports ---------------------------------

    def filter_backup_output(
        self, state: "FtConnectionState", segment: "TCPSegment"
    ) -> bool:
        port = self.port
        message = AckChannelMessage(
            service_ip=port.service_ip,
            service_port=port.port,
            client_ip=state.conn.remote_ip,
            client_port=state.conn.remote_port,
            seq_next=seq_add(segment.seq, segment.seq_span),
            ack=segment.ack if segment.has_ack else 0,
            epoch=port.epoch,
        )
        if port.predecessor_ip is not None:
            state.last_report_sent = port.sim.now
            port.ack_endpoint.send(message, port.predecessor_ip)
        return True

    def on_report(
        self,
        state: "FtConnectionState",
        message: AckChannelMessage,
        sender: "IPAddress",
    ) -> None:
        if sender != state.successor_ip:
            # New successor: its epoch history starts fresh.
            state._successor_epoch = 0
        state.successor_ip = sender
        state.last_successor_msg = self.port.sim.now
        state._apply_wire(message.seq_next, message.ack, message.epoch)

    # -- suspicion ---------------------------------------------------------

    def quiet_successor(self) -> Optional["IPAddress"]:
        port = self.port
        if not port.has_successor:
            return None
        quiet = port.detector_params.successor_quiet
        for state in port.states.values():
            if not state.gated or state.successor_ip is None:
                continue
            if (
                state.last_successor_msg is not None
                and port.sim.now - state.last_successor_msg > quiet
            ):
                return state.successor_ip
        return None

    # -- membership --------------------------------------------------------

    def on_chain_update(self, update, had_successor, old_predecessor) -> None:
        port = self.port
        if had_successor and not port.has_successor:
            # Our successor left the set: stop gating existing
            # connections on it.
            for state in port.states.values():
                state.gated = False
                state.push_gates()

    def splice_gate(self, state: "FtConnectionState", joiner_ip: "IPAddress") -> None:
        state.gated = True
        state.push_gates()
        state.successor_ip = joiner_ip
        # Not silence — the splice just happened; give the joiner a
        # full quiet period before suspecting it.
        state.last_successor_msg = self.port.sim.now
