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

Run with:  python -m repro.experiments.ordered_channel
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.echo import EchoClient, echo_server_factory
from repro.core import DetectorParams
from repro.metrics.stats import percentile
from repro.metrics.tables import Table

from .testbeds import build_ft_system

_QUIET_DETECTOR = DetectorParams(threshold=1_000_000)


@dataclass
class ChannelOutcome:
    channel: str
    loss_rate: float
    echo_mean_ms: float
    echo_p95_ms: float
    stalls: int
    channel_messages: int
    channel_retransmissions: int


def run_channel(
    ordered: bool,
    loss_rate: float,
    seed: int = 0,
    n_requests: int = 200,
    stall_threshold: float = 0.1,
) -> ChannelOutcome:
    with build_ft_system(
        seed=seed,
        n_backups=1,
        factory=echo_server_factory,
        port=7,
        detector=_QUIET_DETECTOR,
        ordered_channel=ordered,
    ) as system:
        system.topo.find_link("redirector", "hs_1").b_to_a.loss_rate = loss_rate
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
        return ChannelOutcome(
            channel="ordered" if ordered else "udp (paper)",
            loss_rate=loss_rate,
            echo_mean_ms=1000 * sum(times) / len(times),
            echo_p95_ms=1000 * percentile(times, 95),
            stalls=sum(1 for t in times if t > stall_threshold),
            channel_messages=total_datagrams,
            channel_retransmissions=retrans,
        )


def run_sweep(
    loss_rates: Sequence[float] = (0.0, 0.1, 0.2),
    seed: int = 0,
    n_requests: int = 200,
) -> list[ChannelOutcome]:
    outcomes = []
    for rate in loss_rates:
        outcomes.append(run_channel(False, rate, seed=seed, n_requests=n_requests))
        outcomes.append(run_channel(True, rate, seed=seed, n_requests=n_requests))
    return outcomes


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


def main(argv: Optional[list[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    fast = "--fast" in args
    rates = (0.0, 0.2) if fast else (0.0, 0.1, 0.2)
    outcomes = run_sweep(loss_rates=rates, n_requests=100 if fast else 200)
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
    for o in outcomes:
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
    problems = check_shape(outcomes)
    if problems:
        print("\nSHAPE CHECK FAILURES:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(
        "\nShape check: OK (ordering repairs channel loss itself, at the cost "
        "of channel acks/retransmissions — the trade §4.3 describes)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
