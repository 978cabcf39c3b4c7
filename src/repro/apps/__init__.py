"""Workload applications: ttcp, echo, a tiny httpd, media streaming."""

from .echo import EchoClient, EchoStats, EchoStream, echo_server_factory, install_echo_server
from .httpd import (
    HttpClient,
    HttpResponse,
    build_response,
    httpd_factory,
    install_httpd,
    render_object,
)
from .media import MediaClient, StreamStats, media_server_factory, render_frame
from .ttcp import (
    TTCP_TCP_OPTIONS,
    TtcpResult,
    TtcpSender,
    UdpTtcpResult,
    UdpTtcpSender,
    UdpTtcpSink,
    install_ttcp_sink,
    ttcp_sink_factory,
)

__all__ = [
    "EchoClient",
    "EchoStats",
    "EchoStream",
    "echo_server_factory",
    "install_echo_server",
    "HttpClient",
    "HttpResponse",
    "build_response",
    "httpd_factory",
    "install_httpd",
    "render_object",
    "MediaClient",
    "StreamStats",
    "media_server_factory",
    "render_frame",
    "TTCP_TCP_OPTIONS",
    "TtcpResult",
    "TtcpSender",
    "UdpTtcpResult",
    "UdpTtcpSender",
    "UdpTtcpSink",
    "install_ttcp_sink",
    "ttcp_sink_factory",
]
