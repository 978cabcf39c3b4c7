"""Live state transfer for in-flight connections (EXTENSION, DESIGN.md
§8; the mechanism follows HyCoR-style checkpoint-plus-replay).

The donor — the current chain tail, which deposits first and therefore
holds the most advanced client stream — ships, per transferable
connection, a :class:`~repro.hydranet.mgmt.ConnSnapshot`: the 4-tuple,
both initial sequence numbers, the full deposited client byte stream
(from the catch-up log), and how far the client has acknowledged the
response.  The joiner *replays* the client stream through its own
deterministic server program, regenerating the response stream locally
— no response bytes ever travel on the management wire, which keeps
snapshots half the size and reuses the determinism ft-TCP already
demands of server programs.

The functions here are free functions over an ``FtPort`` rather than
methods so that :mod:`repro.core.ft_tcp` can stay import-cycle-free
(it lazy-imports this module from inside the live-join methods).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hydranet.mgmt import ConnSnapshot, StateSnapshot
from repro.netsim.addressing import as_address
from repro.tcp.stack import conn_key
from repro.tcp.tcb import TcpConnection, TcpState

if TYPE_CHECKING:
    from repro.core.ft_tcp import ClientKey, FtPort


def snapshot_connections(
    ft_port: "FtPort",
) -> tuple[list[ConnSnapshot], set["ClientKey"]]:
    """Donor side: snapshot every transferable in-flight connection.

    A connection is transferable when it is ESTABLISHED, neither side
    has started closing, and the catch-up log still holds the complete
    client stream.  Anything else is skipped — it keeps running with
    whatever redundancy it has (per-connection chain membership).
    """
    snaps: list[ConnSnapshot] = []
    keys: set["ClientKey"] = set()
    for key, state in ft_port.states.items():
        conn = state.conn
        if (
            conn.state != TcpState.ESTABLISHED
            or conn.irs is None
            or conn.fin_queued
            or conn.peer_fin_offset is not None
            or state.catchup_log.truncated
        ):
            continue
        snaps.append(state.snapshot(0, state.catchup_log.contents()))
        keys.add(key)
    return snaps, keys


def install_snapshot(ft_port: "FtPort", snapshot: StateSnapshot) -> list["ClientKey"]:
    """Joiner side: install a base snapshot; returns the keys of the
    connections now held live (the splice will gate exactly these).

    The snapshot also carries the donor's view epoch: the joiner starts
    epoch-aware so that, if it is ever promoted, it stamps client-bound
    segments with a view the redirector's fence accepts (DESIGN.md §9)."""
    ft_port.epoch = max(ft_port.epoch, snapshot.epoch)
    keys: list["ClientKey"] = []
    for conn_snap in snapshot.conns:
        if install_connection(ft_port, conn_snap):
            keys.append((as_address(conn_snap.client_ip), conn_snap.client_port))
    return keys


def install_connection(ft_port: "FtPort", snap: ConnSnapshot) -> bool:
    """Synthesize one ESTABLISHED connection from a snapshot and replay
    the client stream through the local server program.

    The stack builds what its SYN path would have built had this
    replica been in the multicast set from the start: same
    deterministic ISS (shipped in the snapshot and identical by
    construction), same listener wiring, same ft gate configuration.
    """
    listener = ft_port.listener
    if listener is None or listener.closed:
        return False
    stack = listener.stack
    local_ip = ft_port.service_ip
    remote_ip = as_address(snap.client_ip)
    if conn_key(local_ip, listener.port, remote_ip, snap.client_port) in stack.connections:
        return False
    conn = stack.spawn(listener, local_ip, remote_ip, snap.client_port, snap.iss, snap.irs)
    # The handshake already happened (on the donor); synthesize its
    # outcome so send()/recv() work immediately.
    conn.peer_window = snap.peer_window
    conn.state = TcpState.ESTABLISHED
    listener.connections_accepted += 1
    if listener.on_accept is not None:
        listener.on_accept(conn)
    # Replay: the deposit path runs the bytes through the server
    # program, which regenerates the response stream into the send
    # buffer (suppressed by the output filter — we are a backup).
    if snap.input:
        conn.reassembler.add(snap.input_start, snap.input)
        conn.gates_changed()
    _apply_client_ack(conn, snap.client_acked)
    for delta in ft_port._pending_deltas.pop((remote_ip, snap.client_port), []):
        apply_delta(ft_port, delta)
    ft_port.connections_transferred += 1
    return True


def apply_delta(ft_port: "FtPort", snap: ConnSnapshot) -> None:
    """Joiner side: apply one incremental catch-up delta (a single
    deposit forwarded by the donor between base snapshot and splice).
    Deltas carry absolute stream offsets, so arrival order does not
    matter and overlap with multicast traffic is clipped for free by
    the reassembler."""
    state = ft_port.states.get((as_address(snap.client_ip), snap.client_port))
    if state is None:
        return
    conn = state.conn
    if conn.state == TcpState.CLOSED:
        return
    if snap.input:
        conn.reassembler.add(snap.input_start, snap.input)
        conn.gates_changed()
    _apply_client_ack(conn, snap.client_acked)


def _apply_client_ack(conn: TcpConnection, acked: int) -> None:
    """Advance the synthesized connection's send side to what the
    client has already acknowledged (via the donor).  The replayed
    response below this point needs no retransmission state.

    Applied in steps of at most one send-buffer's worth: the replay may
    have regenerated more response than the buffer holds (the server
    program parks the overflow behind ``on_send_space``), so each
    ack-and-free round lets the program refill before the next round —
    a single clamped pass would strand ``snd_una`` below ``acked``."""
    while True:
        step = min(acked, conn.send_buffer.end)
        if step <= conn.snd_una:
            break
        conn.snd_una = step
        conn.snd_nxt = max(conn.snd_nxt, step)
        conn.snd_max = max(conn.snd_max, conn.snd_nxt)
        conn.send_buffer.ack_to(step)
        if conn.on_send_space is not None and conn.send_buffer.free_space > 0:
            conn.on_send_space()
    if conn.snd_una >= conn.snd_nxt and not (conn.fin_sent and not conn.fin_acked):
        conn.rtx_timer.stop()
    conn.gates_changed()
