"""``ttcp`` — the throughput measurement tool of the paper's §5.

The sender writes ``nbuf`` buffers of ``buflen`` bytes over one TCP
connection and measures the sustained throughput.  As in the paper's
measurements, sender-side batching of small segments is disabled
(``segment_per_write=True`` + Nagle off), so every buffer becomes one
wire segment and ``buflen`` is the on-the-wire "packet size" of
Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.metrics.stats import ThroughputMeter
from repro.sockets.api import Node
from repro.tcp.options import TcpOptions
from repro.tcp.tcb import TcpConnection

#: The measurement-mode TCP options of the paper ("we turned off
#: buffering of small segments at the TCP sender").
TTCP_TCP_OPTIONS = TcpOptions(nagle=False, segment_per_write=True)


@dataclass
class TtcpResult:
    buflen: int
    nbuf: int
    bytes_sent: int
    duration: float
    throughput_kB_per_sec: float
    retransmitted_segments: int
    rto_timeouts: int
    completed: bool

    @property
    def total_expected(self) -> int:
        return self.buflen * self.nbuf


def ttcp_sink_factory(host_server) -> Callable[[TcpConnection], None]:
    """Receiver side (``ttcp -r``): consume everything, deterministic
    across replicas."""

    def on_accept(conn: TcpConnection) -> None:
        conn.on_data = lambda data: None  # read and discard
        conn.on_remote_close = conn.close

    return on_accept


def install_ttcp_sink(node: Node, port: int = 5001):
    """Plain (non-replicated) ttcp receiver on a node."""
    listener = node.listen(port, options=TTCP_TCP_OPTIONS)
    listener.on_accept = ttcp_sink_factory(None)
    return listener


class TtcpSender:
    """Sender side (``ttcp -t``)."""

    def __init__(
        self,
        node: Node,
        dst_ip,
        dst_port: int = 5001,
        buflen: int = 1024,
        nbuf: int = 2048,
        tcp_options: Optional[TcpOptions] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.buflen = buflen
        self.nbuf = nbuf
        self.tcp_options = tcp_options or TTCP_TCP_OPTIONS
        self.meter = ThroughputMeter()
        self.conn: Optional[TcpConnection] = None
        self._buffers_queued = 0
        self._payload = bytes(range(256)) * (buflen // 256 + 1)
        self.finished = False
        self.on_finish: Optional[Callable[[TtcpResult], None]] = None

    def start(self) -> TcpConnection:
        self.meter.start(self.sim.now)
        conn = self.node.connect(self.dst_ip, self.dst_port, options=self.tcp_options)
        self.conn = conn
        conn.on_established = self._pump
        conn.on_send_space = self._pump
        conn.on_closed = lambda reason: self._finish()
        return conn

    def _pump(self) -> None:
        conn = self.conn
        while self._buffers_queued < self.nbuf:
            # Only write whole buffers: a partial write would create a
            # short segment and distort the "packet size" under test.
            if conn.send_buffer.free_space < self.buflen:
                return
            conn.send(self._payload[: self.buflen])
            self._buffers_queued += 1
        if self._buffers_queued >= self.nbuf:
            conn.close()
            # The measurement ends when the last byte is acknowledged,
            # not when the connection finishes TIME_WAIT.
            conn.on_send_space = self._check_done
            self._check_done()

    def _check_done(self) -> None:
        if not self.finished and self.conn.snd_una >= self.buflen * self.nbuf:
            self._finish()

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        self.meter.record(self.sim.now, self.conn.snd_una)
        self.meter.finish(self.sim.now)
        if self.on_finish is not None:
            self.on_finish(self.result())

    def result(self) -> TtcpResult:
        conn = self.conn
        total = self.buflen * self.nbuf
        sent = conn.snd_una if conn is not None else 0
        duration = self.meter.duration
        throughput = (sent / duration / 1000.0) if duration > 0 else 0.0
        return TtcpResult(
            buflen=self.buflen,
            nbuf=self.nbuf,
            bytes_sent=sent,
            duration=duration,
            throughput_kB_per_sec=throughput,
            retransmitted_segments=conn.retransmitted_segments if conn else 0,
            rto_timeouts=conn.congestion.timeouts if conn else 0,
            completed=sent >= total,
        )


@dataclass
class UdpTtcpResult:
    buflen: int
    nbuf: int
    bytes_received: int
    duration: float
    throughput_kB_per_sec: float
    datagrams_received: int

    @property
    def completed(self) -> bool:
        return self.datagrams_received > 0


class UdpTtcpSink:
    """``ttcp -r -u``: counts received datagrams; throughput measured
    receiver-side between first and last arrival."""

    def __init__(self, node: Node, port: int = 5002):
        self.node = node
        self.sim = node.sim
        self.socket = node.udp_socket()
        self.socket.bind(port)
        self.socket.on_datagram = self._on_datagram
        self.first_at = None
        self.last_at = None
        self.bytes_received = 0
        self.datagrams_received = 0

    def _on_datagram(self, data, src_ip, src_port, dst_ip) -> None:
        if self.first_at is None:
            self.first_at = self.sim.now
        self.last_at = self.sim.now
        self.bytes_received += len(data)
        self.datagrams_received += 1

    def result(self, buflen: int, nbuf: int) -> UdpTtcpResult:
        if self.first_at is None or self.last_at == self.first_at:
            duration = 0.0
        else:
            duration = self.last_at - self.first_at
        throughput = self.bytes_received / duration / 1000.0 if duration else 0.0
        return UdpTtcpResult(
            buflen=buflen,
            nbuf=nbuf,
            bytes_received=self.bytes_received,
            duration=duration,
            throughput_kB_per_sec=throughput,
            datagrams_received=self.datagrams_received,
        )


class UdpTtcpSender:
    """``ttcp -t -u``: blasts ``nbuf`` datagrams of ``buflen`` bytes.
    Sends are paced by the host's own CPU model (as on the real slow
    client)."""

    def __init__(
        self,
        node: Node,
        dst_ip,
        dst_port: int = 5002,
        buflen: int = 1024,
        nbuf: int = 1024,
    ):
        self.node = node
        self.sim = node.sim
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.buflen = buflen
        self.nbuf = nbuf
        self.socket = node.udp_socket()
        self._payload = (bytes(range(256)) * (buflen // 256 + 1))[:buflen]
        self._sent = 0

    def start(self) -> None:
        self._send_next()

    def _send_next(self) -> None:
        if self._sent >= self.nbuf:
            return
        self.socket.send_to(self.dst_ip, self.dst_port, self._payload)
        self._sent += 1
        # Model the blocking sendto(): the process cannot issue the
        # next write until the kernel finished processing this one.
        kernel = self.node.host.kernel
        block = max(0.0, kernel._cpu_free_at - self.sim.now)
        self.sim.schedule(block, self._send_next)
