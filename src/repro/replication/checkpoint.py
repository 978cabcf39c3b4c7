"""Checkpoint replication with deferred externalization (HyCoR-style).

Like :class:`~repro.replication.broadcast.BroadcastStrategy`, backups
hang directly off the primary in a star and deposit the multicast
client stream immediately.  Unlike broadcast, a backup's filtered
output produces *no* per-segment report — the acknowledgement channel
goes quiet between checkpoints.  Instead a strategy timer on every
backup announces each connection's current progress once per
``interval`` (the periodic checkpoint), and the primary defers
externalization to those checkpoint acknowledgements: client-visible
output is released in interval-sized batches once every backup's last
checkpoint covers it.

The primary doubles as repair source: a member whose checkpoint
watermark falls more than ``repair_threshold`` bytes behind the local
catch-up log is shipped the missing stream slice through the recovery
subsystem's chunked state-transfer path (one
``StateSnapshot(delta=True)`` chunk per member per tick, ack-free —
the next checkpoint simply shows whether it helped), so a backup that
lost multicast datagrams converges without waiting for the client's
retransmission clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hydranet.mgmt import ConnSnapshot, StateSnapshot
from repro.netsim.simulator import Timer
from repro.tcp.tcb import TcpState

from .base import register_strategy
from .broadcast import BroadcastStrategy

if TYPE_CHECKING:
    from repro.core.ft_tcp import FtConnectionState
    from repro.netsim.packet import TCPSegment

#: Seconds between checkpoints — the externalization latency floor.
DEFAULT_CHECKPOINT_INTERVAL = 0.1

#: A member this many stream bytes behind the local catch-up log gets
#: repair chunks instead of waiting for client retransmissions.
DEFAULT_REPAIR_THRESHOLD = 16 * 1024


@register_strategy
class CheckpointStrategy(BroadcastStrategy):
    """Periodic checkpoint acks; output deferred between checkpoints."""

    name = "checkpoint"
    layout = "star"
    reads_catchup_log = True  # _repair_lagging

    interval = DEFAULT_CHECKPOINT_INTERVAL
    repair_threshold = DEFAULT_REPAIR_THRESHOLD

    def __init__(self, port):
        super().__init__(port)
        self.checkpoints_announced = 0
        self.repair_chunks_sent = 0
        self.timer = Timer(port.sim, self._tick)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.timer.start(self.interval)

    def on_shutdown(self) -> None:
        self.timer.stop()

    # -- replica output ----------------------------------------------------

    def filter_backup_output(
        self, state: "FtConnectionState", segment: "TCPSegment"
    ) -> bool:
        # Deferred externalization: the backup stays silent between
        # checkpoints; its TCP state still advances, so the periodic
        # announce carries the same watermarks a per-segment report
        # would have.
        return True

    # -- the checkpoint tick ----------------------------------------------

    def _tick(self) -> None:
        port = self.port
        if port.shut_down or port.host_server.crashed:
            return
        self.timer.start(self.interval)
        if port.joining:
            return
        if port.is_primary:
            self._repair_lagging()
            return
        if port.predecessor_ip is None:
            return
        for state in list(port.states.values()):
            if state.conn.state != TcpState.CLOSED:
                self.checkpoints_announced += 1
                state.announce()

    def _repair_lagging(self) -> None:
        port = self.port
        if port.daemon is None:
            return
        for state in port.states.values():
            conn = state.conn
            if conn.state == TcpState.CLOSED or not state.gated:
                continue
            log = state.catchup_log
            if log.truncated or conn.irs is None:
                continue
            for ip, view in state.repl.views.items():
                if log.size - view.deposited <= self.repair_threshold:
                    continue
                start = view.deposited
                data = log.slice(start, port.catchup_chunk_size)
                snap = ConnSnapshot(
                    client_ip=conn.remote_ip,
                    client_port=conn.remote_port,
                    iss=conn.iss,
                    irs=conn.irs,
                    input=data,
                    input_start=start,
                    client_acked=conn.snd_una,
                    peer_window=conn.peer_window,
                )
                port.daemon.send_snapshot(
                    StateSnapshot(
                        service_ip=port.service_ip,
                        port=port.port,
                        donor_ip=port.host_server.ip,
                        conns=(snap,),
                        delta=True,
                    ),
                    ip,
                )
                self.repair_chunks_sent += 1
                port.catchup_bytes_sent += len(data)
