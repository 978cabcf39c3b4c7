"""Ablation A5: receive-path design under deposit gating.

The paper's §5 blames its primary+backup throughput hit on "timeouts at
the client, with successive re-transmission because of packets being
dropped at the primary", calling the receive path "conservative" and
fixable.  Our stack implements three variants of how a replica treats
in-order data the deposit gate cannot admit yet:

* ``staged``        — hold it in the reassembly buffer, ACK when the
  gate opens (RFC-compliant window edge).  The fix the paper projected.
* ``conservative``  — count gate-held bytes against the advertised
  window and let the window edge retreat (the paper's kernel).
* ``no-staging``    — drop gated data outright; rely on client
  retransmissions ("message delivery picks up where it was
  interrupted", §4.3).  The most literal reading of the deposit rule.

Run with:  python -m repro.experiments.receive_path
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from repro.apps.ttcp import TTCP_TCP_OPTIONS, TtcpSender
from repro.metrics.tables import Table

from .testbeds import build_ft_system

VARIANTS = {
    "staged": dict(stage_gated_data=True, rfc_window_edge=True),
    "conservative": dict(stage_gated_data=True, rfc_window_edge=False),
    "no-staging": dict(stage_gated_data=False, rfc_window_edge=False),
}


@dataclass
class VariantOutcome:
    variant: str
    throughput_kB_per_sec: float
    client_retransmissions: int
    client_timeouts: int
    completed: bool


def run_variant(
    variant: str,
    buflen: int = 1024,
    nbuf: int = 256,
    seed: int = 0,
    horizon: float = 900.0,
) -> VariantOutcome:
    options = TTCP_TCP_OPTIONS.with_overrides(**VARIANTS[variant])
    with build_ft_system(seed=seed, n_backups=1, tcp_options=options) as system:
        sender = TtcpSender(
            system.client_node,
            system.service_ip,
            system.port,
            buflen=buflen,
            nbuf=nbuf,
            tcp_options=options,
        )
        sender.start()
        system.run_until(horizon)
        result = sender.result()
        return VariantOutcome(
            variant=variant,
            throughput_kB_per_sec=result.throughput_kB_per_sec,
            client_retransmissions=result.retransmitted_segments,
            client_timeouts=result.rto_timeouts,
            completed=result.completed,
        )


def run_all(buflen: int = 1024, nbuf: int = 256, seed: int = 0) -> list[VariantOutcome]:
    return [run_variant(v, buflen=buflen, nbuf=nbuf, seed=seed) for v in VARIANTS]


def check_shape(outcomes: list[VariantOutcome]) -> list[str]:
    problems = []
    by_name = {o.variant: o for o in outcomes}
    staged = by_name.get("staged")
    nostage = by_name.get("no-staging")
    if staged is not None:
        if not staged.completed:
            problems.append("staged variant did not complete")
        if staged.client_timeouts > 0:
            problems.append("staged variant suffered client timeouts")
    if staged is not None and nostage is not None:
        if nostage.throughput_kB_per_sec >= staged.throughput_kB_per_sec * 0.9:
            problems.append(
                "no-staging did not show the paper's timeout penalty "
                f"({nostage.throughput_kB_per_sec:.0f} vs {staged.throughput_kB_per_sec:.0f})"
            )
        if nostage.client_retransmissions <= staged.client_retransmissions:
            problems.append("no-staging produced no extra client retransmissions")
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    nbuf = 64 if "--fast" in args else 256
    outcomes = run_all(nbuf=nbuf)
    table = Table(
        "A5: replica receive path under deposit gating (1024B ttcp, primary+backup)",
        ["variant", "throughput [kB/s]", "client rtx", "client RTOs", "complete"],
    )
    for o in outcomes:
        table.add_row(
            [
                o.variant,
                o.throughput_kB_per_sec,
                o.client_retransmissions,
                o.client_timeouts,
                o.completed,
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
        "\nShape check: OK (staging eliminates the client-timeout penalty the "
        "paper measured and predicted could be fixed)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
