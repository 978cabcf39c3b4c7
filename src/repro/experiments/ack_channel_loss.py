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

from repro.apps.ttcp import TTCP_TCP_OPTIONS, TtcpSender
from repro.metrics.tables import Table
from repro.runtime import Task

from .experiment import Experiment
from .ordered_channel import ChannelOutcome, _QUIET_DETECTOR, _make_lossy, run_channel
from .testbeds import build_ft_system

DEFAULT_LOSS_RATES = (0.0, 0.05, 0.1, 0.2)


@dataclass
class AckLossOutcome:
    loss_rate: float
    bulk_throughput_kB_per_sec: float
    bulk_completed: bool
    #: The echo run over the paper's UDP channel (A6's driver).
    echo: ChannelOutcome


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


def check_shape(outcomes: list[AckLossOutcome]) -> list[str]:
    problems = []
    for outcome in outcomes:
        if not outcome.bulk_completed:
            problems.append(f"loss={outcome.loss_rate}: bulk transfer incomplete")
    if len(outcomes) >= 2:
        first, last = outcomes[0], outcomes[-1]
        if last.echo.stalls <= first.echo.stalls:
            problems.append(
                f"echo stalls did not grow with channel loss: "
                f"{[o.echo.stalls for o in outcomes]}"
            )
        if last.echo.echo_p95_ms <= first.echo.echo_p95_ms * 2:
            problems.append(
                f"echo p95 did not degrade with channel loss: "
                f"{[round(o.echo.echo_p95_ms, 1) for o in outcomes]}"
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
        Task(f"echo@{rate}", run_channel,
             kwargs={"ordered": False, "loss_rate": rate, "n_requests": n_requests},
             cost=n_requests * 2e-4)
        for rate in rates
    ]


def _report(fast: bool, values: dict) -> list[str]:
    outcomes = [
        AckLossOutcome(rate, *values[f"bulk@{rate}"], values[f"echo@{rate}"])
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
                o.echo.echo_mean_ms,
                o.echo.echo_p95_ms,
                o.echo.stalls,
                o.echo.client_retransmissions,
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
