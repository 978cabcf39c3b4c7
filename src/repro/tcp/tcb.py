"""The TCP connection state machine (transmission control block).

This is a reasonably complete event-driven TCP: three-way handshake,
sliding-window data transfer with cumulative and duplicate ACKs, RTO
retransmission with Karn's rule and exponential backoff, fast
retransmit / fast recovery (Reno), delayed ACKs, Nagle, zero-window
persist probes, and the full close/TIME_WAIT dance.

HydraNet-FT hooks (paper §4):

* ``deposit_limit`` — callable returning the highest stream offset
  (exclusive) that may be *deposited* into the socket buffer; the
  ft-TCP backup chain drives this from acknowledgement-channel
  messages.  ACKs we emit only ever cover deposited data.
* ``transmit_limit`` — callable returning the highest stream offset
  (exclusive) that may be *transmitted*; gates outgoing data (and FIN)
  the same way.
* ``output_filter`` — inspects every outgoing segment; returning True
  suppresses the actual send (backups report flow-control fields up the
  acknowledgement channel instead of talking to the client).
* ``on_deposit_data`` / ``on_retransmission_observed`` — notifications
  used by the ft layer and the failure detector.

Internally all positions are unbounded *stream offsets* (payload byte
counts from the start of the connection); conversion to wrapped 32-bit
wire sequence numbers happens only when building/parsing segments.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TCPSegment,
)
from repro.netsim.simulator import Timer

from .buffers import Reassembler, SendBuffer, SocketBuffer
from .congestion import CongestionControl
from .options import TcpOptions
from .sack import SackScoreboard
from .seqnum import seq_add, seq_diff
from .timers import RtoEstimator

if TYPE_CHECKING:
    from .stack import TcpStack

MAX_WINDOW = 65535

# Inline mod-2**32 sequence arithmetic for the per-segment hot paths:
# `x & _SEQ_MASK` equals `x % 2**32` for every int, and
# `((a - b + _SEQ_HALF) & _SEQ_MASK) - _SEQ_HALF` is seq_diff(a, b) —
# the seqnum helpers stay the readable public vocabulary.
_SEQ_MASK = 0xFFFFFFFF
_SEQ_HALF = 0x80000000

#: What the slot of a timer created at its first start holds until
#: then: one shared timer that never runs, so the sites that read
#: ``expires_at`` / ``running`` need not tell never-needed from idle.
_UNSTARTED = Timer(None, None)


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


class TcpError(RuntimeError):
    pass


#: States in which nothing may be sent from the send buffer.
_NO_OUTPUT_STATES = (
    TcpState.CLOSED,
    TcpState.SYN_SENT,
    TcpState.SYN_RCVD,
    TcpState.TIME_WAIT,
)


class TcpConnection:
    """One end of a TCP connection."""

    __slots__ = (
        "stack", "sim", "local_ip", "local_port", "remote_ip", "remote_port",
        "options", "mss", "state", "_listener",
        "iss", "snd_una", "snd_nxt", "snd_max", "peer_window", "send_buffer",
        "fin_queued", "fin_sent", "fin_acked", "sack_enabled", "scoreboard",
        "irs", "reassembler", "socket_buffer", "peer_fin_offset", "fin_deposited", "_rcv_adv",
        "rto", "congestion", "rtx_timer", "ack_timer", "persist_timer", "time_wait_timer",
        "_retries", "_persist_backoff", "_dupacks", "_rtt_sample", "_segs_since_ack",
        "segments_sent", "segments_received", "retransmitted_segments",
        "suppressed_segments", "bytes_sent", "bytes_received",
        "on_established", "on_data", "on_remote_close", "on_closed", "on_send_space",
        "clamp_future_acks", "deposit_limit", "transmit_limit", "output_filter",
        "on_deposit_data", "on_retransmission_observed", "on_retransmit",
        "_closed_reported",
    )

    def __init__(
        self,
        stack: "TcpStack",
        local_ip,
        local_port: int,
        remote_ip,
        remote_port: int,
        options: TcpOptions,
        mss: int,
        iss: int,
        listener=None,
    ):
        self.stack = stack
        self.sim = stack.sim
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.options = options
        self.mss = mss
        self.state = TcpState.CLOSED
        #: The Listener that spawned this connection (None on the
        #: active side); the stack reports ESTABLISHED to it.
        self._listener = listener

        # --- send side ---
        self.iss = iss
        self.snd_una = 0  # lowest unacknowledged stream offset
        self.snd_nxt = 0  # next stream offset to send
        self.snd_max = 0  # highest stream offset ever sent
        self.peer_window = 0
        self.send_buffer = SendBuffer(
            options.send_buffer_size,
            preserve_boundaries=options.segment_per_write,
        )
        self.fin_queued = False
        self.fin_sent = False
        self.fin_acked = False
        #: RFC 2018, negotiated on the SYN (both ends must enable); the
        #: scoreboard exists from then on.
        self.sack_enabled = False
        self.scoreboard: Optional[SackScoreboard] = None

        # --- receive side ---
        self.irs: Optional[int] = None
        self.reassembler = Reassembler()
        self.socket_buffer = SocketBuffer()
        self.peer_fin_offset: Optional[int] = None
        self.fin_deposited = False
        # Highest window right-edge ever advertised (stream offset),
        # kept under ``rfc_window_edge``.  RFC 793/1122: the edge must
        # never move left, even when the deposit gate holds staged
        # bytes that count against the buffer.
        self._rcv_adv = 0

        # --- machinery ---
        self.rto = RtoEstimator(options)
        self.congestion = CongestionControl(options, mss)
        self.rtx_timer = Timer(self.sim, self._on_rto)
        # Created at their first start.
        self.ack_timer = self.persist_timer = self.time_wait_timer = _UNSTARTED
        self._retries = 0
        self._persist_backoff = 0
        self._dupacks = 0
        # Outstanding RTT measurement: (stream offset sample covers, sent
        # time); the handshake's own, taken on the SYN, covers offset 0.
        self._rtt_sample: Optional[tuple[int, float]] = None
        self._segs_since_ack = 0

        # --- statistics ---
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmitted_segments = 0
        self.suppressed_segments = 0
        self.bytes_sent = 0
        self.bytes_received = 0

        # --- application callbacks ---
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_remote_close: Optional[Callable[[], None]] = None
        self.on_closed: Optional[Callable[[str], None]] = None
        #: Called when the send path may accept more data (ACK freed space).
        self.on_send_space: Optional[Callable[[], None]] = None

        # --- HydraNet-FT hooks ---
        #: Replicated-service mode (set by the ft layer).  A cumulative
        #: ACK beyond the locally (re)generated response is clamped to
        #: it instead of ignored: the primary may have transmitted
        #: stream bytes this replica has not regenerated yet, so such
        #: an ACK is valid progress — dropping it wedges ``snd_una``
        #: (and with it the send buffer) forever on a joiner whose
        #: catch-up replay lags the client's ack point.
        self.clamp_future_acks = False
        self.deposit_limit: Optional[Callable[[], Optional[int]]] = None
        self.transmit_limit: Optional[Callable[[], Optional[int]]] = None
        self.output_filter: Optional[Callable[[TCPSegment], bool]] = None
        #: Called as ``on_deposit_data(start_offset, data)`` for every
        #: deposit — the ft layer's catch-up log records the client
        #: stream here.
        self.on_deposit_data: Optional[Callable[[int, bytes], None]] = None
        self.on_retransmission_observed: Optional[Callable[[TCPSegment], None]] = None
        #: Fired when this end retransmits (its data is not being
        #: acknowledged) — the other half of the paper's failure signal:
        #: with a dead primary, a pushing server sees no ACK progress.
        self.on_retransmit: Optional[Callable[[], None]] = None

        self._closed_reported = False

    # ------------------------------------------------------------------
    # wire <-> stream conversion
    # ------------------------------------------------------------------

    def _seq_for(self, offset: int) -> int:
        """Wire sequence number of stream offset ``offset`` (send side)."""
        return seq_add(self.iss, 1 + offset)

    @property
    def ack_point(self) -> int:
        """Deposited stream offset — the basis of the ACKs we send."""
        return self.reassembler.take_point

    def advertised_window(self) -> int:
        """Receive window: buffer capacity minus held bytes (staged
        bytes awaiting the deposit gate count too — the paper's
        "conservative" kernel); under ``rfc_window_edge`` the right
        edge, once advertised, never retreats."""
        reassembler = self.reassembler
        options = self.options
        win = options.recv_buffer_size - reassembler.staged_bytes - self.socket_buffer.size
        if win > MAX_WINDOW:
            win = MAX_WINDOW
        elif win < 0:
            win = 0
        if options.rfc_window_edge:
            ack_point = reassembler.take_point
            edge = self._rcv_adv
            floor = edge - ack_point
            if floor > win:
                win = floor if floor < MAX_WINDOW else MAX_WINDOW
            if ack_point + win > edge:
                self._rcv_adv = ack_point + win
        return win

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------

    def open_active(self) -> None:
        """Send the initial SYN (client side)."""
        if self.state != TcpState.CLOSED:
            raise TcpError(f"cannot connect in state {self.state}")
        self.state = TcpState.SYN_SENT
        self._send_syn()

    def open_passive(self, syn: TCPSegment) -> None:
        """Process the client's SYN (server side) and reply SYN-ACK."""
        if self.state != TcpState.CLOSED:
            raise TcpError(f"cannot accept in state {self.state}")
        self.irs = syn.seq
        self.peer_window = syn.window
        self.sack_enabled = self.options.sack and syn.sack_permitted
        if self.sack_enabled:
            self.scoreboard = SackScoreboard()
        self.state = TcpState.SYN_RCVD
        self._send_syn()

    def send(self, data: bytes) -> int:
        """Queue application data; returns bytes accepted (buffer may be
        full — register ``on_send_space`` to learn when to retry)."""
        if self.state not in (
            TcpState.ESTABLISHED,
            TcpState.CLOSE_WAIT,
            TcpState.SYN_SENT,
            TcpState.SYN_RCVD,
        ):
            raise TcpError(f"cannot send in state {self.state}")
        if self.fin_queued:
            raise TcpError("cannot send after close()")
        accepted = self.send_buffer.append(data)
        self._try_send()
        return accepted

    def recv(self, max_bytes: Optional[int] = None) -> bytes:
        data = self.socket_buffer.read(max_bytes)
        if data and self.state in (TcpState.ESTABLISHED, TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2):
            # The bigger window is advertised by the delayed-ACK timer.
            self._schedule_ack(immediate=False, countable=False)
        return data

    def close(self) -> None:
        """Graceful close: FIN after all queued data."""
        if self.fin_queued or self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        self.fin_queued = True
        self._try_send()

    def abort(self) -> None:
        """Hard close: RST to the peer, everything discarded."""
        if self.state not in (TcpState.CLOSED,) and self.irs is not None:
            self._emit(self._make_segment(FLAG_RST | FLAG_ACK))
        self._teardown("reset")

    @property
    def readable_bytes(self) -> int:
        return self.socket_buffer.size

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # ft-TCP gate notifications
    # ------------------------------------------------------------------

    def gates_changed(self) -> None:
        """Re-evaluate deposit and transmit gates (called by the ft
        layer when acknowledgement-channel state advances)."""
        progressed = self._try_deposit()
        if progressed and self.irs is not None and self.state not in (
            TcpState.CLOSED,
            TcpState.TIME_WAIT,
        ):
            # Deposit advanced on acknowledgement-channel progress: this
            # is the moment the paper's primary "replies to the client"
            # (and a backup forwards its progress up the chain).
            self._send_ack_now()
        self._try_send()

    def kick(self) -> None:
        """Nudge the connection after a fail-over promotion: re-ACK the
        client immediately, re-evaluate gates, and make sure pending
        data is on a retransmission timer so it reaches the wire."""
        if self.state in (TcpState.CLOSED, TcpState.SYN_SENT):
            return
        self.gates_changed()
        if self.irs is not None and self.state != TcpState.TIME_WAIT:
            self._send_ack_now()
        needs_rtx = self.snd_una < self.snd_nxt or (self.fin_sent and not self.fin_acked)
        if needs_rtx:
            self._retransmit_head()
            if not self.rtx_timer.running:
                self.rtx_timer.start(self.rto.rto)

    def kill_silently(self) -> None:
        """Tear down without emitting anything (a replica removed from
        the set must go silent, not RST the shared client connection)."""
        self._teardown("killed")

    # ------------------------------------------------------------------
    # segment construction / emission
    # ------------------------------------------------------------------

    def _sack_blocks(self) -> tuple:
        if not self.sack_enabled or self.irs is None:
            return ()
        base = seq_add(self.irs, 1)
        ranges = self.reassembler.out_of_order_ranges()[-3:]
        return tuple(
            (seq_add(base, lo), seq_add(base, hi)) for lo, hi in ranges
        )

    def _make_segment(
        self, flags: int, seq: Optional[int] = None, data: bytes = b""
    ) -> TCPSegment:
        if seq is None:
            seq = (self.iss + 1 + self.snd_nxt) & _SEQ_MASK
        if flags & FLAG_ACK:
            # Everything deposited, plus one for the peer's FIN once it
            # is consumed.
            irs = self.irs
            if irs is None:
                ack = 0
            else:
                extra = 1 if self.fin_deposited else 0
                ack = (irs + 1 + self.reassembler.take_point + extra) & _SEQ_MASK
            sack = self._sack_blocks() if self.sack_enabled else ()
        else:
            ack = 0
            sack = ()
        return TCPSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=self.advertised_window(),
            data=data,
            sack_blocks=sack,
        )

    def _emit(self, segment: TCPSegment) -> None:
        self.segments_sent += 1
        if segment.flags & FLAG_ACK:
            if self.ack_timer.expires_at is not None:
                self.ack_timer.stop()
            self._segs_since_ack = 0
        if self.output_filter is not None and self.output_filter(segment):
            self.suppressed_segments += 1
            return
        self.stack.send_segment(self, segment)

    def _send_syn(self) -> None:
        flags = FLAG_SYN
        if self.state == TcpState.SYN_RCVD:
            flags |= FLAG_ACK
        seq = self.iss
        segment = TCPSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=seq_add(self.irs, 1) if flags & FLAG_ACK else 0,
            flags=flags,
            window=self.advertised_window(),
            sack_permitted=self.options.sack,
        )
        if self._rtt_sample is None and not self._retries:
            self._rtt_sample = (0, self.sim.now)  # Karn: a first SYN only
        self._emit(segment)
        self.rtx_timer.start(self.rto.rto)

    def _send_ack_now(self) -> None:
        if self.irs is None:
            return
        self._emit(self._make_segment(FLAG_ACK))

    def _schedule_ack(self, immediate: bool, countable: bool = True) -> None:
        if immediate or (not self.options.delayed_ack and countable):
            self._send_ack_now()
            return
        if countable:
            self._segs_since_ack += 1
            if self._segs_since_ack >= 2:
                self._send_ack_now()
                return
        ack_timer = self.ack_timer
        if ack_timer.expires_at is None:
            if ack_timer is _UNSTARTED:
                ack_timer = self.ack_timer = Timer(self.sim, self._on_delayed_ack)
            ack_timer.start(self.options.delayed_ack_timeout)

    def _on_delayed_ack(self) -> None:
        if self._host_dead():
            return
        self._send_ack_now()

    # ------------------------------------------------------------------
    # output path
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        send_buffer = self.send_buffer
        if send_buffer.end <= self.snd_nxt and not self.fin_queued:
            return  # nothing beyond snd_nxt, no FIN to place: no window to work out
        if self.state in _NO_OUTPUT_STATES:
            return
        options = self.options
        transmit_limit = self.transmit_limit
        congestion = self.congestion
        mss = self.mss
        while True:
            # Recomputed each iteration on purpose: emitting a segment
            # runs the ft output filter, which may move the gates.
            peer_window = self.peer_window
            window = congestion.window(peer_window if peer_window > 0 else 0)
            snd_nxt = self.snd_nxt
            usable = self.snd_una + window - snd_nxt
            available = send_buffer.end - snd_nxt
            if transmit_limit is not None:
                ceiling = transmit_limit()
                if ceiling is not None:
                    limited = ceiling - snd_nxt
                    if limited < available:
                        available = limited
            if available <= 0:
                break
            if usable <= 0:
                if peer_window == 0 and self.rtx_timer.expires_at is None:
                    self._start_persist()
                break
            if available > mss:
                available = mss
            if options.segment_per_write:
                # Measurement mode: a write is sent as one segment or
                # not at all — never sliced by the window edge.
                data = send_buffer.read(snd_nxt, available)
                if len(data) > usable:
                    break
            else:
                data = send_buffer.read(snd_nxt, available if available < usable else usable)
            if not data:
                break
            if (
                options.nagle
                and len(data) < mss
                and snd_nxt > self.snd_una
                and not self.fin_queued
            ):
                break
            self._send_data_segment(snd_nxt, data)
        if self.fin_queued:
            self._maybe_send_fin()

    def _send_data_segment(self, offset: int, data: bytes, retransmit: bool = False) -> None:
        flags = FLAG_ACK | FLAG_PSH
        segment = self._make_segment(
            flags, seq=(self.iss + 1 + offset) & _SEQ_MASK, data=data
        )
        end = offset + len(data)
        # After a go-back-N pointer reset, ordinary output below the
        # high-water mark is still a retransmission for Karn/statistics
        # purposes even though it advances snd_nxt.
        is_retransmission = retransmit or offset < self.snd_max
        if is_retransmission:
            self.retransmitted_segments += 1
            # Karn: a measurement covering retransmitted data is invalid.
            if self._rtt_sample is not None and self._rtt_sample[0] > offset:
                self._rtt_sample = None
        else:
            self.bytes_sent += len(data)
            if self._rtt_sample is None:
                self._rtt_sample = (end, self.sim.now)
        self._emit(segment)
        if not retransmit and end > self.snd_nxt:
            self.snd_nxt = end
        if self.snd_nxt > self.snd_max:
            self.snd_max = self.snd_nxt
        if self.rtx_timer.expires_at is None:
            self.rtx_timer.start(self.rto.rto)

    def _maybe_send_fin(self) -> None:
        fin_offset = self.send_buffer.end
        if not self.fin_queued or self.fin_sent or self.snd_nxt < fin_offset:
            return
        if self.transmit_limit is not None:
            ceiling = self.transmit_limit()
            if ceiling is not None and ceiling <= fin_offset:
                return  # gated, like the bytes before it
        self.fin_sent = True
        segment = self._make_segment(
            FLAG_FIN | FLAG_ACK, seq=self._seq_for(self.snd_nxt)
        )
        self._emit(segment)
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state == TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        if not self.rtx_timer.running:
            self.rtx_timer.start(self.rto.rto)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def _host_dead(self) -> bool:
        """Fail-stop: a crashed host's protocol timers are dead (the
        machine halted); they must not fire, reschedule, or queue work
        that could leak after a reboot."""
        return self.stack.host.crashed

    def _on_rto(self) -> None:
        if self.state == TcpState.CLOSED or self._host_dead():
            return
        self._retries += 1
        limit = (
            self.options.max_syn_retries
            if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD)
            else self.options.max_retries
        )
        if self._retries > limit:
            self._teardown("timeout")
            return
        self.rto.on_timeout()
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            self._rtt_sample = None
            if self.on_retransmit is not None:
                self.on_retransmit()
            self._send_syn()
            return
        self.congestion.on_timeout(self.flight_size)
        self._dupacks = 0
        if self.sack_enabled:
            self.scoreboard.clear()  # RFC 2018: SACK info is advisory
        # Go-back-N (as in BSD tcp_output after a timeout): pull the
        # send pointer back so recovery proceeds ack-clocked from
        # snd_una instead of being wedged behind a large flight.
        self.snd_nxt = self.snd_una
        self._retransmit_head()
        self.rtx_timer.start(self.rto.rto)

    def _retransmit_head(self) -> None:
        if self.on_retransmit is not None:
            self.on_retransmit()
        if self.snd_una < self.send_buffer.end:
            start = self.snd_una
            limit = self.send_buffer.end
            if self.sack_enabled:
                hole = self.scoreboard.first_hole(self.snd_una, min(self.snd_max, limit))
                if hole is None:
                    start = None  # everything outstanding is sacked
                else:
                    start, hole_end = hole
                    limit = hole_end
            if start is not None:
                n = min(self.mss, limit - start)
                data = self.send_buffer.read(start, n)
                if data:
                    self._send_data_segment(start, data, retransmit=True)
                    return
        if self.fin_sent and not self.fin_acked:
            self.retransmitted_segments += 1
            self._emit(
                self._make_segment(
                    FLAG_FIN | FLAG_ACK, seq=self._seq_for(self.send_buffer.end)
                )
            )

    def _start_persist(self) -> None:
        if self.persist_timer.running:
            return
        delay = min(
            max(self.rto.rto * (2**self._persist_backoff), self.options.persist_min),
            self.options.persist_max,
        )
        if self.persist_timer is _UNSTARTED:
            self.persist_timer = Timer(self.sim, self._on_persist)
        self.persist_timer.start(delay)

    def _on_persist(self) -> None:
        if self._host_dead():
            return
        if self.state == TcpState.CLOSED or self.peer_window > 0:
            self._persist_backoff = 0
            return
        # Window probe: one byte of data past the window edge.
        if self.snd_nxt < self.send_buffer.end:
            data = self.send_buffer.read(self.snd_nxt, 1)
            if data:
                self._send_data_segment(self.snd_nxt, data[:1], retransmit=True)
        else:
            self._send_ack_now()
        self._persist_backoff += 1
        self._start_persist()

    # ------------------------------------------------------------------
    # input path
    # ------------------------------------------------------------------

    def segment_arrived(self, segment: TCPSegment) -> None:
        self.segments_received += 1
        state = self.state
        if state is TcpState.CLOSED:
            return
        flags = segment.flags
        if flags & FLAG_RST:
            self._handle_rst(segment)
            return
        if state is TcpState.SYN_SENT:
            self._handle_syn_sent(segment)
            return
        if state is TcpState.SYN_RCVD:
            self._handle_syn_rcvd(segment)
            if self.state not in (TcpState.ESTABLISHED,):
                return
            # Fall through: the ACK completing the handshake may carry data.
        if flags & FLAG_SYN:
            # Retransmitted SYN on an established connection: our
            # SYN-ACK or ACK was lost; re-acknowledge.
            self._send_ack_now()
            return
        if flags & FLAG_ACK:
            self._process_ack(segment)
        if self.state == TcpState.CLOSED:
            return
        self.peer_window = segment.window
        if self.persist_timer.expires_at is not None and segment.window > 0:
            # The window reopened: what the probe was standing in for
            # goes out ahead of anything this segment's payload causes.
            self.persist_timer.stop()
            self._persist_backoff = 0
            self._try_send()
        self._process_payload(segment)
        if self.fin_queued or self.send_buffer.end > self.snd_nxt:
            self._try_send()

    # -- handshake states -------------------------------------------------

    def _handle_syn_sent(self, segment: TCPSegment) -> None:
        if not segment.syn:
            return
        self.irs = segment.seq
        self.peer_window = segment.window
        self.sack_enabled = self.options.sack and segment.sack_permitted
        if self.sack_enabled:
            self.scoreboard = SackScoreboard()
        if segment.has_ack and seq_diff(segment.ack, seq_add(self.iss, 1)) == 0:
            # SYN-ACK: handshake complete on our side.
            self._handshake_done()
            self._send_ack_now()
            if self.on_established:
                self.on_established()
            self._try_send()
        # (Simultaneous open is not modelled.)

    def _handle_syn_rcvd(self, segment: TCPSegment) -> None:
        if segment.syn and not segment.has_ack:
            # Duplicate SYN: client did not see our SYN-ACK yet — a
            # client retransmission in the failure-estimator sense.
            if self.on_retransmission_observed is not None:
                self.on_retransmission_observed(segment)
            self._send_syn()
            return
        if segment.has_ack and seq_diff(segment.ack, seq_add(self.iss, 1)) >= 0:
            self._handshake_done()
            self.peer_window = segment.window
            if self.on_established:
                self.on_established()
            self.stack.connection_established(self)

    def _handshake_done(self) -> None:
        """Our SYN is acknowledged: time it and enter ESTABLISHED."""
        self._retries = 0
        if self._rtt_sample is not None:
            self.rto.on_measurement(self.sim.now - self._rtt_sample[1])
            self._rtt_sample = None
        self.rtx_timer.stop()
        self.state = TcpState.ESTABLISHED

    # -- RST ---------------------------------------------------------------

    def _handle_rst(self, segment: TCPSegment) -> None:
        if self.state == TcpState.TIME_WAIT:
            # RFC 1337: ignore RSTs in TIME_WAIT (prevents TIME-WAIT
            # assassination by stray segments).
            return
        reason = "refused" if self.state == TcpState.SYN_SENT else "reset"
        self._teardown(reason)

    # -- ACK processing ------------------------------------------------------

    def _process_ack(self, segment: TCPSegment) -> None:
        if self.sack_enabled and segment.sack_blocks:
            base = seq_add(self.iss, 1)
            for left, right in segment.sack_blocks:
                self.scoreboard.record(seq_diff(left, base), seq_diff(right, base))
        # Stream offset acknowledged — seq_diff(ack, iss + 1) in C
        # arithmetic; our FIN counts as one position past the last byte.
        acked = ((segment.ack - self.iss - 1 + _SEQ_HALF) & _SEQ_MASK) - _SEQ_HALF
        send_end = self.send_buffer.end
        fin_point = send_end + 1 if self.fin_sent else None
        max_valid = send_end if fin_point is None else fin_point
        if acked > max_valid:
            if not self.clamp_future_acks:
                # ACK for data we never sent — ignore.
                return
            acked = max_valid
        data_acked = acked if acked < send_end else send_end
        if data_acked > self.snd_una or (
            fin_point is not None and acked == fin_point and not self.fin_acked
        ):
            newly = data_acked - self.snd_una
            if newly > 0:
                self.snd_una = data_acked
            snd_una = self.snd_una
            if snd_una > self.snd_nxt:
                self.snd_nxt = snd_una
            self.send_buffer.ack_to(snd_una)
            if self.sack_enabled:  # else nothing was ever recorded
                self.scoreboard.advance(snd_una)
            self._retries = 0
            self._dupacks = 0
            # RTT sample (Karn-valid ones only).
            if self._rtt_sample is not None and self.snd_una >= self._rtt_sample[0]:
                self.rto.on_measurement(self.sim.now - self._rtt_sample[1])
                self._rtt_sample = None
            self.rto.reset_backoff()
            if self.congestion.in_fast_recovery:
                if self.congestion.ack_covers_recovery(self.snd_una):
                    self.congestion.on_full_ack_in_recovery()
                else:
                    # NewReno partial ACK: retransmit the next hole.
                    self._retransmit_head()
            else:
                self.congestion.on_ack(newly, self.snd_nxt)
            if fin_point is not None and acked == fin_point:
                self.fin_acked = True
                self._fin_acked_transition()
            if self.snd_una >= self.snd_nxt and not (self.fin_sent and not self.fin_acked):
                self.rtx_timer.stop()
            else:
                self.rtx_timer.start(self.rto.rto)
            if self.on_send_space and self.send_buffer.free_space > 0:
                self.on_send_space()
        elif (
            data_acked == self.snd_una
            and self.snd_nxt > self.snd_una
            and not segment.data
            and not segment.flags & FLAG_FIN
        ):
            self._dupacks += 1
            if self._dupacks == self.options.dupack_threshold:
                if self.congestion.on_dupacks(self.snd_nxt - self.snd_una, self.snd_nxt):
                    self._retransmit_head()
            elif self._dupacks > self.options.dupack_threshold:
                self.congestion.on_extra_dupack()
                self._try_send()

    def _fin_acked_transition(self) -> None:
        if self.state == TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state == TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state == TcpState.LAST_ACK:
            self._teardown("closed")

    # -- payload / FIN ---------------------------------------------------------

    def _process_payload(self, segment: TCPSegment) -> None:
        if self.irs is None:
            return
        # Receive-side stream offset: seq_diff(seq, irs + 1) in C arithmetic.
        offset = ((segment.seq - self.irs - 1 + _SEQ_HALF) & _SEQ_MASK) - _SEQ_HALF
        data = segment.data
        dlen = len(data)
        end = offset + dlen
        reassembler = self.reassembler
        had_payload = dlen > 0
        is_old = had_payload and end <= reassembler.in_order_end
        if had_payload and (is_old or offset < reassembler.in_order_end):
            # Fully or partially old data: a retransmission from the
            # peer.  The ft failure detector counts these (paper §4.3).
            if self.on_retransmission_observed is not None:
                self.on_retransmission_observed(segment)
        if had_payload:
            self.bytes_received += dlen
            if (
                not self.options.stage_gated_data
                and self.deposit_limit is not None
                and end > reassembler.in_order_end
            ):
                ceiling = self.deposit_limit()
                if ceiling is not None and end > ceiling:
                    # Conservative-kernel emulation: data the deposit
                    # gate cannot admit yet is dropped outright; the
                    # client's retransmission will pick up where message
                    # delivery was interrupted (paper §4.3/§5).
                    return
            # Stream offset past which arriving data is dropped: the
            # advertised edge, or (conservative mode) the buffer's own.
            rfc_edge = self.options.rfc_window_edge
            edge = self._rcv_adv if rfc_edge else reassembler.take_point + self.advertised_window()
            if offset >= reassembler.in_order_end and (
                offset >= edge or (not rfc_edge and end > edge)
            ):
                # Beyond the window edge.  RFC mode: a zero-window
                # probe / overrun — drop the payload but re-ACK so the
                # sender's persist machinery keeps working.
                # Conservative mode: a tail drop at the retreated edge —
                # silent, recovered by the client's RTO (paper §5).
                if rfc_edge:
                    self._send_ack_now()
                return
            before = reassembler.in_order_end
            reassembler.add(offset, data)
            advanced = reassembler.in_order_end > before
            out_of_order = not advanced
        else:
            out_of_order = False
        if segment.flags & FLAG_FIN:
            if self.peer_fin_offset is None:
                self.peer_fin_offset = end
        deposited = self._try_deposit()
        if had_payload:
            # Out-of-order or duplicate data wants an immediate dup-ACK
            # (fast retransmit depends on it).  In-order data that the
            # deposit gate is holding back must NOT be dup-ACKed — the
            # acknowledgement follows when the gate opens — so gated
            # arrivals fall back to the delayed-ACK timer as a safety
            # net only and do not count toward the 2-segment rule.
            self._schedule_ack(
                immediate=out_of_order or is_old, countable=deposited
            )
        elif segment.flags & FLAG_FIN and not deposited:
            # Retransmitted FIN (the original was already consumed and
            # ACKed from the state transition): re-ACK it.
            self._send_ack_now()

    def _try_deposit(self) -> bool:
        """Move staged bytes into the socket buffer as far as the
        deposit gate allows.  Returns True if anything was deposited or
        the FIN was consumed."""
        progressed = False
        reassembler = self.reassembler
        deposit_limit = self.deposit_limit
        ceiling = deposit_limit() if deposit_limit is not None else None
        target = reassembler.in_order_end
        if ceiling is not None and ceiling < target:
            target = ceiling
        n = target - reassembler.take_point
        if n > 0:
            start = reassembler.take_point
            data = reassembler.take(n)
            socket_buffer = self.socket_buffer
            progressed = True
            if (
                self.on_data is not None
                and not socket_buffer.size
                and self.on_deposit_data is None
            ):
                # A reader that takes bytes as they come, an empty
                # socket buffer and no deposit hook to run in between:
                # the chunk is deposited and read back in one step.
                socket_buffer.total_deposited += n
                socket_buffer.total_read += n
                self.on_data(data)
            else:
                socket_buffer.deposit(data)
                if self.on_deposit_data is not None:
                    self.on_deposit_data(start, data)
                if self.on_data is not None and socket_buffer.size:
                    self.on_data(socket_buffer.read())
        # Peer FIN is consumable once all payload before it deposited
        # and the gate lets us past it.
        fin_offset = self.peer_fin_offset
        if (
            fin_offset is not None
            and not self.fin_deposited
            and reassembler.take_point >= fin_offset
            and reassembler.in_order_end >= fin_offset
            and (ceiling is None or ceiling > fin_offset)
        ):
            self.fin_deposited = True
            progressed = True
            self._fin_received_transition()
        return progressed

    def _fin_received_transition(self) -> None:
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state == TcpState.FIN_WAIT_1:
            # Our FIN not yet acked, theirs arrived: simultaneous close.
            self.state = TcpState.CLOSING
        elif self.state == TcpState.FIN_WAIT_2:
            self._enter_time_wait()
        self._send_ack_now()
        if self.on_remote_close:
            self.on_remote_close()

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._stop_timers()
        self.time_wait_timer = Timer(self.sim, self._teardown)  # 2*MSL over: "closed"
        self.time_wait_timer.start(2 * self.options.msl)

    def _stop_timers(self) -> None:
        """Stop every timer; those created on demand are given back."""
        for timer in (self.rtx_timer, self.ack_timer, self.persist_timer, self.time_wait_timer):
            if timer is not _UNSTARTED:
                timer.stop()
        self.ack_timer = self.persist_timer = self.time_wait_timer = _UNSTARTED

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def _teardown(self, reason: str = "closed") -> None:
        if self.state == TcpState.CLOSED and self._closed_reported:
            return
        self.state = TcpState.CLOSED
        self._stop_timers()
        self.stack.connection_closed(self)
        if not self._closed_reported:
            self._closed_reported = True
            if self.on_closed:
                self.on_closed(reason)
        self._drop_application()

    def _drop_application(self) -> None:
        """CLOSED and reported: arms and calls nothing again (else a cycle)."""
        self.rtx_timer = _UNSTARTED
        self.on_established = self.on_data = self.on_remote_close = None
        self.on_closed = self.on_send_space = None

    def dispose(self) -> None:
        """Teardown (DESIGN.md §19): timers, callbacks and ft-TCP hooks."""
        self._drop_application()
        self.ack_timer = self.persist_timer = self.time_wait_timer = _UNSTARTED
        self.deposit_limit = self.transmit_limit = self.output_filter = None
        self.on_deposit_data = self.on_retransmission_observed = self.on_retransmit = None

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.local_ip}:{self.local_port} -> "
            f"{self.remote_ip}:{self.remote_port} {self.state.value}>"
        )
