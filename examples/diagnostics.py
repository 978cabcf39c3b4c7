#!/usr/bin/env python
"""Network diagnostics inside a HydraNet world: a tcpdump-style view of
what ft-TCP actually puts on the wire.

Run:  python examples/diagnostics.py
"""

from repro.core import DetectorParams
from repro.apps.echo import echo_server_factory
from repro.experiments.testbeds import build_ft_system
from repro.metrics.traceview import capture_at, summarize, time_sequence
from repro.netsim import Tracer


def main():
    system = build_ft_system(
        seed=11,
        n_backups=1,
        detector=DetectorParams(threshold=4),
        factory=echo_server_factory,
        port=7,
    )

    # --- capture one replicated echo exchange ---------------------------
    print("## tcpdump view of one replicated echo (client side)")
    system.sim.tracer = Tracer(
        filter=lambda r: r.node.startswith("client")
    )
    conn = system.client_node.connect(system.service_ip, 7)
    conn.on_established = lambda: (conn.send(b"hello hydranet"), conn.close())
    system.run_until(system.sim.now + 2.0)
    records = capture_at(system.sim.tracer, "client")
    print(time_sequence(records, client_ip=str(system.client.ip)))
    print()
    print(summarize(system.sim.tracer))


if __name__ == "__main__":
    main()
