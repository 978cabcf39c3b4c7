"""Isolated per-layer micro rows (README.md §Micro rows).

Each row times one operation of one layer on its own, in ns per
operation unless its name says otherwise.  The rows do not depend on
the workload or the seed; the traced run measures them once and
attaches them to its table.  A row that cannot be measured on the
tree at hand (an API it needs is gone) reports 0 and is named on
stderr.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
from time import perf_counter

SAMPLES = 5
#: Seconds one sample of a row runs for at ``--scale 1``.
SAMPLE_SECONDS = 0.1


def _ns_per_op(batch, ops_per_batch: int, budget_s: float) -> float:
    """Median over SAMPLES of the ns one operation takes; ``batch()``
    performs ``ops_per_batch`` of them.  (One sample when the budget
    says this is a smoke test.)"""
    samples = []
    for _ in range(SAMPLES if budget_s >= SAMPLE_SECONDS else 1):
        done, elapsed = 0, 0.0
        t_end = perf_counter() + budget_s
        while True:
            t0 = perf_counter()
            batch()
            t1 = perf_counter()
            elapsed += t1 - t0
            done += ops_per_batch
            if t1 >= t_end:
                break
        samples.append(elapsed / done * 1e9)
    return statistics.median(samples)


def calib(budget_s: float) -> float:
    """A fixed pure-Python loop: the speed stamp of the box."""

    def batch():
        acc = 0
        for i in range(20_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    return _ns_per_op(batch, 20_000, budget_s)


def scheduler_churn(depth: int, budget_s: float) -> float:
    """Hold model: ``depth`` standing events; each dispatched event
    posts its successor a random delay ahead, so the queue keeps its
    depth while events churn through it."""
    from repro.netsim import Simulator

    sim = Simulator(seed=0)
    rng = random.Random(depth)
    delays = itertools.cycle([rng.uniform(0.0, 1.0) for _ in range(4096)])
    post = sim.post

    def hop():
        post(next(delays), hop)

    for _ in range(depth):
        post(next(delays), hop)
    batch_events = max(1000, min(20_000, depth * 10))
    sim.run(max_events=batch_events)  # let the wheel/heap reach steady state
    return _ns_per_op(lambda: sim.run(max_events=batch_events), batch_events, budget_s)


def timer_restart(budget_s: float) -> float:
    """Restart a running timer to a later deadline (what every ACK
    does to the retransmission timer)."""
    from repro.netsim import Simulator
    from repro.netsim.simulator import Timer

    sim = Simulator(seed=0)
    timer = Timer(sim, lambda: None)
    state = {"delay": 0.2}

    def batch():
        delay = state["delay"]
        start = timer.start
        for _ in range(1000):
            delay += 1e-6
            start(delay)
        state["delay"] = delay

    return _ns_per_op(batch, 1000, budget_s)


def _segment_packet(dst="192.20.225.20", port=5001, size=1024):
    from repro.netsim.addressing import as_address
    from repro.netsim.packet import FLAG_ACK, IPPacket, Protocol, TCPSegment

    segment = TCPSegment(
        src_port=40000, dst_port=port, seq=1, ack=1, flags=FLAG_ACK, window=65535,
        data=bytes(size),
    )
    return IPPacket(
        src=as_address("10.0.0.2"), dst=as_address(dst), protocol=Protocol.TCP, payload=segment
    )


def tunnel(budget_s: float) -> float:
    from repro.netsim.addressing import as_address
    from repro.netsim.tunnel import decapsulate, encapsulate

    inner = _segment_packet()
    src, dst = as_address("10.0.1.1"), as_address("10.0.2.2")

    def batch():
        for _ in range(1000):
            decapsulate(encapsulate(inner, src, dst))

    return _ns_per_op(batch, 1000, budget_s)


def redirector_multicast(replicas: int, budget_s: float) -> float:
    """One client packet through ``Kernel.receive_from_nic`` of a
    redirector with ``replicas`` installed targets, until the copies
    have left for (and been dropped by) plain hosts: the redirector's
    receive, table lookup, per-copy encapsulation, send and link hop."""
    from repro.hydranet import Redirector
    from repro.netsim import Simulator, Topology

    sim = Simulator(seed=0)
    topo = Topology(sim)
    client = topo.add_host("client")
    redirector = topo.add(Redirector(sim, "redirector"))
    targets = [topo.add_host(f"target_{i}") for i in range(replicas)]
    topo.connect(client, redirector, queue_capacity=4096)
    for target in targets:
        topo.connect(redirector, target, queue_capacity=4096)
    topo.build_routes()
    redirector.install_ft_primary("192.20.225.20", 5001, targets[0].ip)
    for target in targets[1:]:
        redirector.install_ft_backup("192.20.225.20", 5001, target.ip)
    nic = redirector.interfaces[0]
    receive = redirector.kernel.receive_from_nic
    packets = [_segment_packet() for _ in range(200)]

    def batch():
        for packet in packets:
            receive(packet, nic)
        sim.run()

    batch()
    if redirector.packets_redirected != len(packets):
        raise RuntimeError("redirector micro row did not redirect its packets")
    return _ns_per_op(batch, len(packets), budget_s)


def redirector_lookup(services: int, budget_s: float) -> float:
    from repro.hydranet import Redirector
    from repro.netsim import Simulator

    redirector = Redirector(Simulator(seed=0), "redirector")
    keys = [(f"192.20.{i // 200}.{i % 200 + 1}", 5000 + i) for i in range(services)]
    for ip, port in keys:
        redirector.install_ft_primary(ip, port, "10.0.0.9")
    lookup = redirector.entry_for

    def batch():
        for ip, port in keys:
            lookup(ip, port)

    return _ns_per_op(batch, len(keys), budget_s)


def ack_report(budget_s: float) -> float:
    from repro.core.ack_channel import AckChannelMessage
    from repro.netsim.addressing import as_address

    service, client = as_address("192.20.225.20"), as_address("10.0.0.2")

    def batch():
        for seq in range(1000):
            AckChannelMessage(service, 5001, client, 40000, seq, seq, 1).checksum_valid()

    return _ns_per_op(batch, 1000, budget_s)


def tcp_sendbuf(budget_s: float) -> float:
    """append + read + ack_to of one 1024-byte segment."""
    from repro.tcp.buffers import SendBuffer

    buf = SendBuffer(1 << 20, preserve_boundaries=True)
    data = bytes(1024)

    def batch():
        for _ in range(1000):
            buf.append(data)
            end = buf.end
            buf.read(end - 1024, 1024)
            buf.ack_to(end)

    return _ns_per_op(batch, 1000, budget_s)


def tcp_reasm(budget_s: float) -> float:
    """add + take of one in-order 1024-byte segment."""
    from repro.tcp.buffers import Reassembler

    reasm = Reassembler()
    data = bytes(1024)

    def batch():
        for _ in range(1000):
            reasm.add(reasm.in_order_end, data)
            reasm.take(1024)

    return _ns_per_op(batch, 1000, budget_s)


def meter_record(budget_s: float) -> float:
    from repro.metrics.stats import ThroughputMeter

    state = {"now": 0.0}

    def batch():
        meter = ThroughputMeter()
        now = state["now"]
        record = meter.record
        for _ in range(1000):
            now += 0.001
            record(now, 1024)
        state["now"] = now

    return _ns_per_op(batch, 1000, budget_s)


def topo_compile(services: int, samples: int) -> float:
    """Seconds to generate and compile the D5-certify-sized mesh."""
    from repro.topo import compile_spec, generate

    params = dict(
        pods=4, edges_per_pod=2, servers_per_edge=3, clients_per_edge=2, cores=2,
        services=services, backups=1,
    )
    times = []
    for i in range(samples):
        t0 = perf_counter()
        compile_spec(generate("fat_tree", params, seed=i))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _noop(i: int) -> int:
    return i


def runtime_rows(scenarios: int, noop_tasks: int) -> dict:
    """Pool overhead per task (ms) and the jobs-2 speed-up on a batch
    of fuzz scenarios."""
    from repro.invariants.fuzz import scenario_task
    from repro.runtime import ScenarioPool, Task

    def batch_wall(jobs: int, tasks) -> float:
        with ScenarioPool(jobs=jobs) as pool:
            pool.run([Task(key="warm", fn=_noop, args=(0,))])
            t0 = perf_counter()
            outcomes = pool.run(tasks)
            wall = perf_counter() - t0
        if not all(o.ok for o in outcomes.values()):
            raise RuntimeError("a pool task failed in the runtime micro row")
        return wall

    noops = [Task(key=f"n{i}", fn=_noop, args=(i,)) for i in range(noop_tasks)]
    overhead_ms = batch_wall(2, noops) / len(noops) * 1e3
    fuzz = [Task(key=f"s{i}", fn=scenario_task, args=(i,)) for i in range(scenarios)]
    speedup = batch_wall(1, fuzz) / batch_wall(2, fuzz)
    return {"runtime.task_overhead_ms": overhead_ms, "runtime.jobs2_speedup": speedup}


#: name -> row(budget seconds, sized), where ``sized(full, floor)``
#: shrinks a standing size at ``--scale < 1``.
ROWS = {
    "host.calib_ns": lambda budget, sized: calib(budget),
    "scheduler.churn_ns_d100": lambda budget, sized: scheduler_churn(100, budget),
    "scheduler.churn_ns_d10k": lambda budget, sized: scheduler_churn(sized(10_000, 100), budget),
    "scheduler.churn_ns_d100k": lambda budget, sized: scheduler_churn(sized(100_000, 100), budget),
    "scheduler.timer_restart_ns": lambda budget, sized: timer_restart(budget),
    "ip.tunnel_ns": lambda budget, sized: tunnel(budget),
    "redirector.multicast_ns_r1": lambda budget, sized: redirector_multicast(1, budget),
    "redirector.multicast_ns_r3": lambda budget, sized: redirector_multicast(3, budget),
    "redirector.lookup_ns_s120": lambda budget, sized: redirector_lookup(120, budget),
    "ack_channel.report_ns": lambda budget, sized: ack_report(budget),
    "tcp.sendbuf_ns": lambda budget, sized: tcp_sendbuf(budget),
    "tcp.reasm_ns": lambda budget, sized: tcp_reasm(budget),
    "metrics.meter_record_ns": lambda budget, sized: meter_record(budget),
    "topo.compile_s_s120": lambda budget, sized: topo_compile(
        sized(120, 4), 3 if budget >= SAMPLE_SECONDS else 1
    ),
}
RUNTIME_ROWS = ("runtime.task_overhead_ms", "runtime.jobs2_speedup")
MICRO_ROWS = (*ROWS, *RUNTIME_ROWS)


def measure(scale: float) -> dict:
    """Every micro row: name -> value.  At ``scale < 1`` (smoke tests)
    the rows also shrink their standing state, so the values no longer
    mean what their names say."""
    budget = SAMPLE_SECONDS * scale

    def sized(full: int, floor: int) -> int:
        return max(floor, int(full * min(1.0, scale)))

    out = {name: _guarded(name, lambda row=row: row(budget, sized)) for name, row in ROWS.items()}
    runtime = _guarded("runtime.*", lambda: runtime_rows(sized(16, 2), sized(200, 10)))
    for name in RUNTIME_ROWS:
        out[name] = runtime[name] if runtime else 0.0
    return out


def _guarded(name: str, row):
    try:
        return row()
    except Exception as exc:  # the row's API is gone: report, do not abort the ledger
        print(f"micro row {name} not measured: {exc!r}", file=sys.stderr)
        return 0.0
