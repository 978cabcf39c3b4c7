#!/usr/bin/env python3
"""One workload of the layered perf ledger (see README.md).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is the timed run: repetitions of the workload on fresh
systems for about S seconds, nothing patched, and the end-to-end
metrics of BENCHMARK.json on the last line of stdout.  ``--trace 1`` is
the traced run: one untraced reference repetition, then repetitions
under the boundary tracer, and the per-layer metrics.  Either way the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a run that is not correct also says why on stderr and
exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import counters
import micro
from layers import LAYERS, UNATTRIBUTED
from stats import spread, summarize
from tracer import SPAN_DUMP_LIMIT, Registry, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Timed repetitions are at least this many, however short ``--seconds``.
MIN_REPS = 3
#: Fresh interpreters started to time the imports.
IMPORT_SAMPLES = 7


def load_schema() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(modules, samples: int) -> list[float]:
    """Seconds a fresh interpreter needs to import ``modules``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {', '.join(modules)}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip()))
    return times


def calibration_seconds() -> float:
    """A fixed pure-Python loop (about 10 ms).  The box's speed drifts by
    10 % and more within a run (shared host); timing this loop right
    before and after a repetition lets ``wall_per_calib`` cancel most of
    that drift."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def repetition(workload, inputs):
    """Build a fresh system, run it; returns (build_s, wall_s, outcome)."""
    gc.collect()
    t0 = perf_counter()
    system = workload.build(inputs)
    t1 = perf_counter()
    result = workload.run(system, inputs)
    t2 = perf_counter()
    return t1 - t0, t2 - t1, workload.outcome(system, inputs, result)


class Verdict:
    """Operations attempted and failed over a run, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._first_digest = None

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.reasons.extend(outcome.reasons)
        if self._first_digest is None:
            self._first_digest = outcome.digest
        elif outcome.digest != self._first_digest:
            self.fail("a repetition's digest differs from the first repetition's")

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons.append(reason)


def show(name: str, unit: str, values, bound=None) -> None:
    s = summarize(values)
    flag = ""
    if bound is not None and s["n"] >= 4 and spread(s) > bound:
        flag = f"  unresolved (spread {spread(s):.1%} > bound {bound:.0%})"
    print(
        f"{name:32s} {s['median']:14.6g} {unit:6s} n={s['n']:<3d} "
        f"q1={s['q1']:.6g} q3={s['q3']:.6g} min={s['min']:.6g}{flag}"
    )


# -- timed run ---------------------------------------------------------------


def timed(workload, args, schema, verdict) -> dict:
    light = args.scale < 1.0
    imports = import_seconds(workload.modules, 1 if light else IMPORT_SAMPLES)
    inputs = workload.inputs(args.seed, args.scale)
    warm = repetition(workload, workload.inputs(args.seed, args.scale, warmup=True))[2]
    if warm.failed:
        verdict.fail(f"warm-up: {warm.reasons[0]}")
    builds, walls, ratios, sims = [], [], [], None
    started = perf_counter()
    while len(walls) < MIN_REPS or perf_counter() - started < args.seconds:
        calib_before = calibration_seconds()
        build_s, wall_s, outcome = repetition(workload, inputs)
        calib = (calib_before + calibration_seconds()) / 2.0
        builds.append(build_s)
        walls.append(wall_s)
        ratios.append(wall_s / calib)
        verdict.add(outcome)
        sims = outcome.sim
    bounds = {m["name"]: m["bound"] for m in schema["end_to_end"]}
    setups = [statistics.median(imports) + b for b in builds]
    print(f"# {workload.name} seed={args.seed} scale={args.scale} timed run: host metrics")
    show("wall_s", "s", walls, bounds.get("wall_s"))
    show("wall_per_calib", "ratio", ratios, bounds.get("wall_per_calib"))
    show("setup_s", "s", setups, bounds.get("setup_s"))
    show("setup_s.import", "s", imports)
    show("setup_s.build", "s", builds)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "wall_per_calib": statistics.median(ratios),
        "peak_rss_mb": max_rss_mib(),
        "sim_goodput_kBps": sims["sim_goodput_kBps"],
    }
    print(f"{'peak_rss_mb':32s} {values['peak_rss_mb']:14.6g} MiB    n=1")
    print("# simulated-side results (deterministic)")
    for name, value in sims.items():
        print(f"{name:32s} {value:14.9g}")
    return values


# -- traced run --------------------------------------------------------------


def traced(workload, args, schema, verdict) -> dict:
    inputs = workload.inputs(args.seed, args.scale)
    registry = Registry()
    registry.install()
    started = perf_counter()

    # Reference: the same repetition, untraced, for the event count,
    # the counters and the wall the tracing overhead is measured against.
    rss_before = max_rss_mib()
    _, ref_wall, ref = repetition(workload, inputs)
    rss_grown_kb = (max_rss_mib() - rss_before) * 1024.0
    verdict.add(ref)
    ref_counts = counters.read(registry.instances)
    registry.clear()

    # The Figure-4 overhead needs the clean-path goodput of the same transfer.
    overhead_pct = 0.0
    if workload.name in ("bulk_chain", "small_star"):
        clean = WORKLOADS["bulk_clean"]
        clean_outcome = repetition(clean, inputs)[2]
        clean_goodput = clean_outcome.sim["sim_goodput_kBps"]
        if clean_outcome.failed or not clean_goodput:
            verdict.fail("clean-path reference transfer failed")
        else:
            overhead_pct = 100.0 * (1.0 - ref.sim["sim_goodput_kBps"] / clean_goodput)
        registry.clear()

    tracer = Tracer()
    tracer.install()
    walls, aggs = [], []
    try:
        while not walls or perf_counter() - started < args.seconds:
            registry.clear()
            tracer.reset()
            gc.collect()
            system = workload.build(inputs)
            start = tracer.mark()
            t0 = perf_counter()
            result = workload.run(system, inputs)
            wall = perf_counter() - t0
            verdict.add(workload.outcome(system, inputs, result))
            walls.append(wall)
            aggs.append(tracer.aggregate(start, wall))
            traced_counts = counters.read(registry.instances)
            if traced_counts != ref_counts:
                changed = [k for k in ref_counts if ref_counts[k] != traced_counts[k]]
                verdict.fail(f"tracing perturbed the run: {changed} differ from the untraced run")
            if aggs[-1]["calls"] != aggs[0]["calls"]:
                verdict.fail("span counts differ between traced repetitions")
        OUT_DIR.mkdir(exist_ok=True)
        dumped = tracer.dump(
            OUT_DIR / f"{workload.name}.spans.jsonl", start,
            SPAN_DUMP_LIMIT if args.scale >= 1.0 else 2000,
        )
    finally:
        tracer.uninstall()
        registry.uninstall()

    # Report the repetition with the median wall, so that its rows add
    # up to its wall exactly.
    pick = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    agg, traced_wall = aggs[pick], walls[pick]
    values = layer_rows(agg, traced_wall, ref_wall, len(tracer.missing))
    values.update(ref_counts)
    values.update(derived_rows(agg["by_name"], ref_counts, ref_wall, rss_grown_kb, tracer))
    values["ft_tcp.sim_overhead_pct"] = overhead_pct
    for name in ("sim_p50_ms", "sim_p95_ms", "sim_delivered_kB"):
        values[f"apps.{name}"] = ref.sim.get(name, 0.0)
    values.update(micro.measure(args.scale))

    total = sum(agg["self_s"].values()) + agg["outside_s"]
    if abs(total - traced_wall) > 0.01 * traced_wall:
        verdict.fail(f"layer self times sum to {total:.4f}s, traced wall is {traced_wall:.4f}s")

    print(
        f"# {workload.name} seed={args.seed} scale={args.scale} traced run: "
        f"{len(walls)} traced repetition(s), reference wall {ref_wall:.4f}s, "
        f"traced wall {traced_wall:.4f}s, {dumped} of {agg['spans']} spans written"
    )
    show_layers(values, agg["by_name"], {m["name"]: m["unit"] for m in schema["per_layer"]})
    if tracer.missing:
        print(f"# boundaries not found on this tree: {tracer.missing}")
    return values


def layer_rows(agg: dict, traced_wall: float, ref_wall: float, missing: int) -> dict:
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = agg["self_s"][layer]
        values[f"{layer}.calls"] = agg["calls"][layer]
    values["trace.unattributed_s"] = agg["self_s"][UNATTRIBUTED] + agg["outside_s"]
    values["trace.overhead_ratio"] = traced_wall / ref_wall
    values["trace.spans"] = agg["spans"]
    values["trace.boundaries_missing"] = missing
    values["trace.wall_s"] = traced_wall
    return values


def derived_rows(by_name: dict, counts: dict, ref_wall: float, rss_grown_kb: float, tracer) -> dict:
    """Rows computed from counters, span counts and the gate-wait probe."""
    events, conns = counts["scheduler.events"], counts["tcp.connections"]
    redirected = counts["redirector.packets_redirected"]
    copies = by_name.get("ip:encapsulate", (0, 0.0))[0]
    waits = sorted(tracer.deposit_waits)
    values = {
        "scheduler.us_per_event": ref_wall / events * 1e6 if events else 0.0,
        "tcp.rss_kB_per_conn": rss_grown_kb / conns if conns else 0.0,
        "ip.tunnel_overhead_bytes": 20 * copies,
        "redirector.copies_per_packet": copies / redirected if redirected else 0.0,
        "ft_tcp.deposit_wait_sim_ms": statistics.fmean(waits) * 1e3 if waits else 0.0,
        "ft_tcp.deposit_wait_sim_ms_p95": (
            waits[min(len(waits) - 1, int(0.95 * (len(waits) - 1) + 0.5))] * 1e3 if waits else 0.0
        ),
    }
    for strategy in ("chain", "broadcast", "checkpoint"):
        prefix = f"replication:{strategy.capitalize()}Strategy."
        values[f"replication.{strategy}_calls"] = sum(
            calls for name, (calls, _) in by_name.items() if name.startswith(prefix)
        )
    return values


def show_layers(values: dict, by_name: dict, units: dict) -> None:
    wall = values["trace.wall_s"]
    print(f"{'layer':14s} {'self_s':>10s} {'share':>7s} {'calls':>10s}")
    for layer in LAYERS:
        self_s = values[f"{layer}.self_s"]
        print(f"{layer:14s} {self_s:10.4f} {self_s / wall:7.1%} {values[f'{layer}.calls']:10d}")
    unattributed = values["trace.unattributed_s"]
    print(f"{'unattributed':14s} {unattributed:10.4f} {unattributed / wall:7.1%}")
    print("# busiest boundaries (self seconds, calls)")
    for name, (calls, self_s) in sorted(by_name.items(), key=lambda kv: -kv[1][1])[:12]:
        print(f"  {name:44s} {self_s:9.4f} {calls:9d}")
    print("# counters, derived rows and micro rows")
    for name, value in values.items():
        if not name.endswith((".self_s", ".calls")):
            print(f"{name:36s} {value:16.9g} {units.get(name, '')}")


# -- entry -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload's inputs (smoke tests only; results at "
        "another scale are not comparable)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # The program must see only the generated inputs.
    scrubbed = [name for name in os.environ if name.startswith("REPRO_")]
    for name in scrubbed:
        print(f"bench: ignoring {name}={os.environ.pop(name)!r}", file=sys.stderr)
    sys.path.insert(0, str(SRC))

    schema = load_schema()
    workload = WORKLOADS.get(args.workload)
    if workload is None or args.workload not in {w["name"] for w in schema["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    verdict = Verdict()
    section = "per_layer" if args.trace else "end_to_end"
    values = (traced if args.trace else timed)(workload, args, schema, verdict)

    leaked = [name for name in os.environ if name.startswith("REPRO_")]
    if leaked:
        verdict.fail(f"environment knobs in effect: {leaked}")
    units = {m["name"]: m["unit"] for m in schema[section]}
    if set(units) - set(values):
        verdict.fail(f"metrics not measured: {sorted(set(units) - set(values))}")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    correct = verdict.failed == 0
    print(
        f"# operations attempted {verdict.attempted}, failed {verdict.failed} "
        f"(failed_share {verdict.failed / max(1, verdict.attempted):.6f})"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, verdict.attempted),
                "failed": verdict.failed,
                "metrics": metrics,
            }
        )
    )
    if not correct:
        print(f"bench: FAILED: {verdict.reasons[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
