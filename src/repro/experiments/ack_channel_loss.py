"""Ablation A3: the unreliable acknowledgement channel.

Paper §4.3: "In the current implementation we use a kernel-to-kernel
UDP connection for the acknowledgement channel, trading low overhead
against ... client re-transmissions if packets on the acknowledgement
channel are lost."

Two workloads expose the two sides of the trade:

* **bulk** (ttcp): channel messages are cumulative, so a continuous
  stream heals around lost messages — throughput barely moves.  This
  is why the unreliable channel is cheap in the common case.
* **request/response** (echo): a lost message can stall the primary's
  deposit/output gate with no follow-up message coming; recovery rides
  on a client RTO retransmission — response-time spikes and client
  retransmissions grow with the loss rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps.echo import EchoClient, echo_server_factory
from repro.apps.ttcp import TTCP_TCP_OPTIONS, TtcpSender
from repro.core import DetectorParams
from repro.metrics.stats import percentile
from repro.metrics.tables import Table
from repro.runtime import Task

from .experiment import Experiment
from .testbeds import build_ft_system

#: The sweep isolates the channel trade-off, so the failure estimator is
#: effectively disabled (otherwise the congestion fail-stop rule would
#: remove the lossy backup — see A2).
_QUIET_DETECTOR = DetectorParams(threshold=1_000_000)
#: An echo answered later than this (seconds) counts as a stall.
STALL_THRESHOLD = 0.1

DEFAULT_LOSS_RATES = (0.0, 0.05, 0.1, 0.2)


@dataclass
class AckLossOutcome:
    loss_rate: float
    bulk_throughput_kB_per_sec: float
    bulk_completed: bool
    echo_mean_ms: float
    echo_p95_ms: float
    echo_stalls: int
    client_retransmissions: int


def _make_lossy(system, loss_rate: float) -> None:
    """Loss on the backup->redirector direction — the first hop of the
    acknowledgement channel and nothing else (the backup sends no other
    traffic: its TCP output is suppressed)."""
    system.topo.find_link("redirector", "hs_1").b_to_a.loss_rate = loss_rate


def run_bulk(loss_rate: float, seed: int = 0, nbuf: int = 512) -> tuple[float, bool]:
    with build_ft_system(seed=seed, n_backups=1, detector=_QUIET_DETECTOR) as system:
        _make_lossy(system, loss_rate)
        sender = TtcpSender(
            system.client_node,
            system.service_ip,
            system.port,
            buflen=1024,
            nbuf=nbuf,
            tcp_options=TTCP_TCP_OPTIONS,
        )
        sender.start()
        system.run_until(600.0)
        result = sender.result()
        return result.throughput_kB_per_sec, result.completed


def run_echo(
    loss_rate: float,
    seed: int = 0,
    n_requests: int = 200,
) -> tuple[float, float, int, int]:
    with build_ft_system(
        seed=seed,
        n_backups=1,
        factory=echo_server_factory,
        port=7,
        detector=_QUIET_DETECTOR,
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
        stats = client.stats
        times = stats.response_times or [float("nan")]
        stalls = sum(1 for t in times if t > STALL_THRESHOLD)
        retrans = client.conn.retransmitted_segments if client.conn else 0
        return (
            1000 * sum(times) / len(times),
            1000 * percentile(times, 95),
            stalls,
            retrans,
        )


def check_shape(outcomes: list[AckLossOutcome]) -> list[str]:
    problems = []
    for outcome in outcomes:
        if not outcome.bulk_completed:
            problems.append(f"loss={outcome.loss_rate}: bulk transfer incomplete")
    if len(outcomes) >= 2:
        first, last = outcomes[0], outcomes[-1]
        if last.echo_stalls <= first.echo_stalls:
            problems.append(
                f"echo stalls did not grow with channel loss: "
                f"{[o.echo_stalls for o in outcomes]}"
            )
        if last.echo_p95_ms <= first.echo_p95_ms * 2:
            problems.append(
                f"echo p95 did not degrade with channel loss: "
                f"{[round(o.echo_p95_ms, 1) for o in outcomes]}"
            )
        # Bulk stays within a modest band — the cheap common case.
        if last.bulk_throughput_kB_per_sec < first.bulk_throughput_kB_per_sec * 0.7:
            problems.append("bulk throughput collapsed under channel loss")
    return problems


def _params(fast: bool) -> tuple[Sequence[float], int, int]:
    """Loss rates, bulk nbuf and echo requests for this mode."""
    return ((0.0, 0.2), 128, 100) if fast else (DEFAULT_LOSS_RATES, 512, 200)


def _points(fast: bool) -> list[Task]:
    rates, nbuf, n_requests = _params(fast)
    return [
        Task(f"bulk@{rate}", run_bulk, kwargs={"loss_rate": rate, "nbuf": nbuf},
             cost=nbuf * 7e-5)
        for rate in rates
    ] + [
        Task(f"echo@{rate}", run_echo, kwargs={"loss_rate": rate, "n_requests": n_requests},
             cost=n_requests * 2e-4)
        for rate in rates
    ]


def _report(fast: bool, values: dict) -> list[str]:
    outcomes = [
        AckLossOutcome(rate, *values[f"bulk@{rate}"], *values[f"echo@{rate}"])
        for rate in _params(fast)[0]
    ]
    table = Table(
        "A3: acknowledgement-channel loss (primary + 1 backup)",
        [
            "channel loss",
            "bulk ttcp [kB/s]",
            "echo mean [ms]",
            "echo p95 [ms]",
            "stalls>0.1s",
            "client rtx",
        ],
    )
    for o in outcomes:
        table.add_row(
            [
                f"{o.loss_rate:.0%}",
                o.bulk_throughput_kB_per_sec,
                o.echo_mean_ms,
                o.echo_p95_ms,
                o.echo_stalls,
                o.client_retransmissions,
            ]
        )
    print(table)
    return check_shape(outcomes)


EXPERIMENT = Experiment(
    "A3 acknowledgement-channel loss",
    _points,
    _report,
    ok="bulk tolerant; request/response pays in client retransmissions, as §4.3 predicts",
)
