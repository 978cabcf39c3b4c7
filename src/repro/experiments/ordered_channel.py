"""Ablation A6: the acknowledgement channel the paper did NOT build.

§4.3: "Ordering across connections to the same replicated TCP port is
assured if the acknowledgement channel provides in-order message
delivery.  In the current implementation we use a kernel-to-kernel UDP
connection ... trading low overhead against lack of ordering across
connections and against client re-transmissions if packets on the
acknowledgement channel are lost."

This ablation builds the rejected alternative — a reliable, in-order
channel (per-message acknowledgements, retransmission, hold-back) — and
measures both sides of the trade on a lossy channel path:

* the ordered channel repairs losses itself, so echo response times
  stay flat where the UDP channel stalls until a client RTO;
* the price is channel traffic: roughly one ack per message plus
  retransmissions, visible in the message counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.echo import EchoClient, echo_server_factory
from repro.core import DetectorParams
from repro.metrics.stats import percentile
from repro.metrics.tables import Table
from repro.runtime import Task

from .experiment import Experiment
from .testbeds import build_ft_system

#: The channel trade-off is isolated, so the failure estimator is
#: effectively disabled (otherwise the congestion fail-stop rule would
#: remove the lossy backup — see A2).
_QUIET_DETECTOR = DetectorParams(threshold=1_000_000)
#: An echo answered later than this (seconds) counts as a stall.
STALL_THRESHOLD = 0.1


def _make_lossy(system, loss_rate: float) -> None:
    """Loss on the backup->redirector direction — the first hop of the
    acknowledgement channel and nothing else (the backup sends no other
    traffic: its TCP output is suppressed)."""
    system.topo.find_link("redirector", "hs_1").b_to_a.loss_rate = loss_rate


@dataclass
class ChannelOutcome:
    channel: str
    loss_rate: float
    echo_mean_ms: float
    echo_p95_ms: float
    stalls: int
    channel_messages: int
    channel_retransmissions: int
    client_retransmissions: int


def run_channel(
    ordered: bool,
    loss_rate: float,
    seed: int = 0,
    n_requests: int = 200,
) -> ChannelOutcome:
    with build_ft_system(
        seed=seed,
        n_backups=1,
        factory=echo_server_factory,
        port=7,
        detector=_QUIET_DETECTOR,
        ordered_channel=ordered,
    ) as system:
        _make_lossy(system, loss_rate)
        client = EchoClient(
            system.client_node,
            system.service_ip,
            port=7,
            request_size=64,
            n_requests=n_requests,
            think_time=0.005,
        )
        client.start()
        system.run_until(900.0)
        times = client.stats.response_times or [float("nan")]
        # Channel cost: every datagram either endpoint's channel socket put
        # on the wire (messages, retransmissions, and per-message acks).
        total_datagrams = sum(
            node.ack_endpoint.socket.datagrams_sent for node in system.nodes
        )
        retrans = sum(
            getattr(node.ack_endpoint, "channel_retransmissions", 0)
            for node in system.nodes
        )
        conn = client.conn
        return ChannelOutcome(
            channel="ordered" if ordered else "udp (paper)",
            loss_rate=loss_rate,
            echo_mean_ms=1000 * sum(times) / len(times),
            echo_p95_ms=1000 * percentile(times, 95),
            stalls=sum(1 for t in times if t > STALL_THRESHOLD),
            channel_messages=total_datagrams,
            channel_retransmissions=retrans,
            client_retransmissions=conn.retransmitted_segments if conn else 0,
        )


def check_shape(outcomes: list[ChannelOutcome]) -> list[str]:
    problems = []
    by_key = {(o.channel, o.loss_rate): o for o in outcomes}
    rates = sorted({o.loss_rate for o in outcomes})
    lossy = [r for r in rates if r > 0]
    for rate in lossy:
        udp = by_key[("udp (paper)", rate)]
        ordered = by_key[("ordered", rate)]
        if ordered.echo_p95_ms >= udp.echo_p95_ms:
            problems.append(
                f"ordered channel did not improve p95 at loss={rate} "
                f"({ordered.echo_p95_ms:.1f} vs {udp.echo_p95_ms:.1f} ms)"
            )
    if rates and rates[0] == 0.0:
        udp0 = by_key[("udp (paper)", 0.0)]
        ordered0 = by_key[("ordered", 0.0)]
        # The paper's trade: on a clean channel, ordering buys nothing
        # but costs extra channel traffic (per-message acks).
        if ordered0.echo_p95_ms > udp0.echo_p95_ms * 1.5:
            problems.append("ordered channel hurt the loss-free case")
    return problems


def _points(fast: bool) -> list[Task]:
    rates, n_requests = ((0.0, 0.2), 100) if fast else ((0.0, 0.1, 0.2), 200)
    return [
        Task(f"{'ordered' if ordered else 'udp'}@{rate}", run_channel,
             kwargs={"ordered": ordered, "loss_rate": rate, "n_requests": n_requests},
             cost=n_requests * 2e-4)
        for rate in rates
        for ordered in (False, True)
    ]


def _report(fast: bool, values: dict) -> list[str]:
    table = Table(
        "A6: UDP vs reliable-ordered acknowledgement channel (echo, lossy channel)",
        [
            "channel",
            "loss",
            "mean [ms]",
            "p95 [ms]",
            "stalls>0.1s",
            "chan msgs",
            "chan rtx",
        ],
    )
    for o in values.values():
        table.add_row(
            [
                o.channel,
                f"{o.loss_rate:.0%}",
                o.echo_mean_ms,
                o.echo_p95_ms,
                o.stalls,
                o.channel_messages,
                o.channel_retransmissions,
            ]
        )
    print(table)
    return check_shape(list(values.values()))


EXPERIMENT = Experiment(
    "A6 ordered acknowledgement channel", _points, _report,
    ok="ordering repairs channel loss itself, at the cost of channel "
    "acks/retransmissions — the trade §4.3 describes",
)
