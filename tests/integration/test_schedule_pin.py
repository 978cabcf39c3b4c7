"""Exact pin of the per-seed deterministic schedule (ROADMAP item 3).

Every case runs a small instance of one of the perf ledger's five
workload shapes and compares the tuple

    (events_processed, repr(sim.now), bytes deposited,
     sum of tcp segments_sent, sum of channel packets_sent,
     peak scheduler queue length)

against the value recorded when the pin was added.  The ttcp shapes run
on to a fixed horizon, so their ``sim.now`` does not say when the
transfer finished: they append ``repr(throughput_kB_per_sec)``.

The fingerprints elsewhere in the suite hash protocol *outcomes*; this
pins the ``(time, seq)`` schedule and the packet-level counters
themselves, so an optimisation that adds, drops or re-sequences an
event fails here even when every byte still arrives (the fused link hop of PR 15 moved
fuzz seed 62 on the broadcast backend behind an unchanged protocol
fingerprint).  A deliberate behaviour change re-records the table and
says so in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.experiments.testbeds import build_clean, build_primary_backup
from repro.invariants.fuzz import generate_spec, run_scenario
from repro.netsim.link import Channel
from repro.netsim.simulator import Simulator
from repro.tcp.tcb import TcpConnection
from repro.topo import MeshScenario, MeshWorkload, generate


class _Built:
    """The simulators, connections and channels built inside a block."""

    CLASSES = {"sims": Simulator, "conns": TcpConnection, "channels": Channel}

    def __init__(self, monkeypatch):
        for attr, cls in self.CLASSES.items():
            bucket: list = []
            setattr(self, attr, bucket)

            def init(obj, *args, _orig=cls.__init__, _bucket=bucket, **kwargs):
                _orig(obj, *args, **kwargs)
                _bucket.append(obj)

            monkeypatch.setattr(cls, "__init__", init)

    def pin(self) -> tuple:
        return (
            sum(sim.events_processed for sim in self.sims),
            repr(max(sim.now for sim in self.sims)),
            sum(conn.socket_buffer.total_deposited for conn in self.conns),
            sum(conn.segments_sent for conn in self.conns),
            sum(channel.packets_sent for channel in self.channels),
            max(sim.peak_queue_len for sim in self.sims),
        )


def _ttcp(builder, buflen, nbuf):
    def run(seed):
        # The testbeds are loss-free: the seed varies the length.
        result = builder(seed).run(buflen=buflen, nbuf=nbuf + 16 * seed)
        assert result.completed
        return (repr(result.throughput_kB_per_sec),)

    return run


def _mesh(seed):
    spec = generate(
        "fat_tree",
        dict(pods=4, edges_per_pod=2, servers_per_edge=3, clients_per_edge=2,
             cores=2, services=32, backups=1),
        seed=seed,
    )
    workload = MeshWorkload(
        connections=24, requests_per_conn=2, request_size=64,
        think_time=0.15, start_window=0.25, deadline=120.0,
    )
    report = MeshScenario(spec, workload).run()
    assert report.completed == 24 and not report.violations


def _fuzz(**options):
    def run(seed):
        assert not run_scenario(generate_spec(seed, **options)).violated_monitors

    return run


SHAPES = {
    "clean": _ttcp(build_clean, 1024, 384),
    "chain": _ttcp(lambda seed: build_primary_backup(seed, 2, "chain"), 1024, 384),
    "star64": _ttcp(lambda seed: build_primary_backup(seed, 2, "broadcast"), 64, 768),
    "mesh": _mesh,
    "fuzz": _fuzz(),
    "fuzz_gray": _fuzz(gray=True),
    "fuzz_broadcast": _fuzz(backend="broadcast"),
    "fuzz_checkpoint": _fuzz(backend="checkpoint"),
}

#: (shape, seed) -> pin.  The first five columns were recorded at the parent
#: of PR 18, the peak queue length and the throughput at the parent of PR 20.
#: fuzz_checkpoint-11 builds one segment fewer since retransmissions are
#: gated: the promoted primary's kick no longer builds [5168, 5704) past its
#: ceiling of 0 (the promotion fence used to swallow it).
PINS = {
    ("clean", 1): (4250, "600.0", 409600, 607, 1214, 95, "577.8239736006672"),
    ("clean", 2): (4418, "600.0", 425984, 631, 1262, 95, "579.1666213467629"),
    ("chain", 1): (14440, "602.0", 1228800, 1017, 2860, 122, "473.104647606254"),
    ("chain", 2): (14864, "602.0", 1277952, 1057, 2972, 122, "473.59950476966253"),
    ("star64", 1): (24602, "602.0", 150528, 1975, 5544, 1026, "83.90009708311878"),
    ("star64", 2): (25026, "602.0", 153600, 2015, 5656, 1030, "84.11470748952051"),
    ("mesh", 1): (25094, "2.5", 9216, 480, 6962, 1317),
    ("mesh", 2): (25064, "2.5", 9216, 480, 6952, 1316),
    ("fuzz", 0): (5233, "44.0", 145536, 459, 1306, 411),
    ("fuzz", 3): (1435, "34.8", 25600, 95, 305, 62),
    ("fuzz", 5): (4094, "42.6", 276608, 436, 1082, 119),
    ("fuzz", 8): (6253, "50.6", 140960, 520, 1546, 336),
    ("fuzz", 12): (10780, "3.5", 51072, 1232, 2842, 161),  # a redirector-mesh scenario
    ("fuzz_gray", 4): (16360, "46.3", 630878, 1254, 3946, 652),
    ("fuzz_gray", 9): (15267, "51.8", 878873, 1340, 3611, 599),
    ("fuzz_broadcast", 7): (1153, "37.0", 96864, 109, 293, 117),
    ("fuzz_broadcast", 62): (1031, "29.4", 84576, 95, 257, 101),
    ("fuzz_checkpoint", 2): (1543, "48.9", 51200, 76, 211, 28),
    ("fuzz_checkpoint", 11): (17514, "61.8", 199856, 814, 3882, 386),
}


@pytest.mark.parametrize("shape,seed", sorted(PINS), ids=lambda v: str(v))
def test_schedule_pin(shape, seed, monkeypatch):
    built = _Built(monkeypatch)
    extra = SHAPES[shape](seed) or ()
    assert built.pin() + extra == PINS[(shape, seed)]
