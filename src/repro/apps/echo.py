"""Echo service: the simplest deterministic replicated server, plus a
request/response client driver used in fail-over experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sockets.api import Node
from repro.tcp.tcb import TcpConnection, TcpState


class _EchoSession:
    """One accepted connection of an echo server: echo every byte back.

    Backpressure-correct: bytes the send buffer cannot take yet are
    parked and flushed on ``on_send_space``.  A bare ``on_data =
    conn.send`` drops the overflow, which silently corrupts the
    response stream a joining replica regenerates through this handler
    when the catch-up replay outruns the send buffer (DESIGN.md §14).
    """

    __slots__ = ("conn", "pending")

    def __init__(self, conn: TcpConnection):
        self.conn = conn
        self.pending = bytearray()
        conn.on_data = self.feed
        conn.on_remote_close = conn.close

    def flush(self) -> None:
        conn, pending = self.conn, self.pending
        while pending:
            if conn.fin_queued or conn.state not in (
                TcpState.ESTABLISHED,
                TcpState.CLOSE_WAIT,
            ):
                pending.clear()
                return
            n = conn.send(pending)
            if n == 0:
                conn.on_send_space = self.flush  # the rest when space frees up
                return
            del pending[:n]

    def feed(self, data: bytes) -> None:
        self.pending.extend(data)
        self.flush()


def echo_server_factory(host_server) -> Callable[[TcpConnection], None]:
    """Per-replica accept handler (see :class:`_EchoSession`)."""
    return _EchoSession


def install_echo_server(node: Node, port: int = 7):
    """Plain (non-replicated) echo server."""
    listener = node.listen(port)
    listener.on_accept = echo_server_factory(None)
    return listener


@dataclass
class EchoStats:
    requests_sent: int = 0
    responses_received: int = 0
    response_times: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def outstanding(self) -> int:
        return self.requests_sent - self.responses_received


class EchoClient:
    """Closed-loop echo client: sends a request, waits for the full
    echo, then sends the next after ``think_time``.  Response times
    expose fail-over stalls."""

    def __init__(
        self,
        node: Node,
        server_ip,
        port: int = 7,
        request_size: int = 64,
        n_requests: int = 100,
        think_time: float = 0.01,
    ):
        self.node = node
        self.sim = node.sim
        self.server_ip = server_ip
        self.port = port
        self.request_size = request_size
        self.n_requests = n_requests
        self.think_time = think_time
        self.stats = EchoStats()
        self.conn: Optional[TcpConnection] = None
        self._pending = 0
        self._sent_at = 0.0
        #: Simulated time of ``start()`` and of the connection's close.
        self.opened_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.done = False
        self.on_done: Optional[Callable[[EchoStats], None]] = None

    def start(self) -> TcpConnection:
        self.opened_at = self.sim.now
        conn = self.node.connect(self.server_ip, self.port)
        self.conn = conn
        conn.on_established = self._next_request
        conn.on_data = self._on_data
        conn.on_closed = self._on_closed
        return conn

    def _next_request(self) -> None:
        if self.stats.requests_sent >= self.n_requests:
            self.conn.close()
            return
        self.stats.requests_sent += 1
        self._pending = self.request_size
        self._sent_at = self.sim.now
        payload = bytes([self.stats.requests_sent % 256]) * self.request_size
        self.conn.send(payload)

    def _on_data(self, data: bytes) -> None:
        self._pending -= len(data)
        if self._pending <= 0:
            self.stats.responses_received += 1
            self.stats.response_times.append(self.sim.now - self._sent_at)
            if self.stats.requests_sent >= self.n_requests:
                self.done = True
                self.conn.close()
                if self.on_done is not None:
                    self.on_done(self.stats)
            else:
                self.sim.schedule(self.think_time, self._next_request)

    def _on_closed(self, reason: str) -> None:
        self.closed_at = self.sim.now
        if not self.done and reason != "closed":
            self.stats.errors.append(reason)
