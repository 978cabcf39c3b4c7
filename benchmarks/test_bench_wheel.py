"""Micro-benchmarks for two hot structures (DESIGN.md §10): scheduler
churn and the redirector fast table.

Unlike the macro-benchmark these time a single structure in isolation,
so the numbers are only comparable *within* one run — CI uses them to
spot order-of-magnitude cliffs, not absolute speed.
"""

from repro.netsim.simulator import Simulator


def _churn(n_pending: int = 2000, ops: int = 20_000) -> int:
    """Representative scheduler churn: a standing population of timers
    being continuously fired, re-armed, and occasionally cancelled at
    the engine's short-horizon mix (retransmit/heartbeat/serialization
    delays)."""
    sim = Simulator()
    fired = 0

    def tick():
        nonlocal fired
        fired += 1

    # Standing population.
    handles = [sim.schedule(0.001 + (i % 97) * 0.0005, tick) for i in range(n_pending)]
    for i in range(ops):
        slot = i % n_pending
        handles[slot].cancel()
        handles[slot] = sim.schedule(0.002 + (i % 89) * 0.0004, tick)
        if i % 7 == 0:
            sim.post(0.0015, tick)
    sim.run_until_idle(max_events=n_pending + ops)
    return fired


def test_bench_scheduler_churn(benchmark):
    fired = benchmark.pedantic(_churn, rounds=3, iterations=1)
    assert fired > 0
    benchmark.extra_info["fired"] = fired


def _fast_table_lookups(n_services: int = 256, lookups: int = 200_000) -> int:
    """The redirector's per-packet path: two fast-table probes per
    packet ((src, sport) then (dst, dport)) against plain-int keys."""
    from repro.hydranet.redirector import _RedirectorTable, RedirectionEntry, ServiceKey
    from repro.netsim.addressing import IPAddress

    table = _RedirectorTable()
    for i in range(n_services):
        key = ServiceKey(IPAddress(0x0A000000 + i), 5000 + i)
        table[key] = RedirectionEntry(
            key=key, replicas=[IPAddress(0x0A010000 + i)]
        )
    fast = table.fast
    hits = 0
    for i in range(lookups):
        if fast.get((0x0A000000 + (i % n_services), 5000 + (i % n_services))):
            hits += 1
        if fast.get((0x0B000000 + (i % n_services), 5000)) is None:
            hits += 1  # miss path is just as hot (non-service traffic)
    return hits


def test_bench_redirector_fast_table(benchmark):
    hits = benchmark.pedantic(_fast_table_lookups, rounds=3, iterations=1)
    assert hits == 400_000
