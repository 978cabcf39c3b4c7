#!/usr/bin/env python3
"""Compare two result sets of ``collect.py``: parent A, change B.

    python3 bench/compare.py A.json B.json

One row per (metric, workload), by the rule for a noisy sandbox
(choosing-metrics §8).  Runs are paired by seed.  For a host metric:

* ``gain``        B wins at least 9 of 10 pairs (ties count for neither)
                  and the medians differ by more than the distance
                  between A's own quartiles;
* ``regression``  B's median is worse than A's by more than the bound
                  BENCHMARK.json fixes for the metric;
* ``unresolved``  neither, and A's own spread is wider than the bound,
                  so "no worse" cannot be told from this data;
* ``no worse``    otherwise.

Simulated-side metrics and the counts of the traced runs repeat
exactly, so they are compared for equality per seed: ``equal`` or
``changed`` (a behaviour change, to be explained, never a speed-up).
Host-side rows of the traced runs are single samples and are listed
with their ratio only.  Exit status 1 if any row is a regression.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

from micro import MICRO_ROWS
from stats import spread, summarize

HERE = Path(__file__).resolve().parent

#: End-to-end metrics that are simulated results, not host timings.
SIM_END_TO_END = ("sim_goodput_kBps",)
#: Per-layer rows that carry host time or memory; every other per-layer
#: row is a deterministic count or simulated-time figure.
HOST_PER_LAYER = (
    "*.self_s", "trace.unattributed_s", "trace.overhead_ratio", "trace.wall_s",
    "scheduler.us_per_event", "tcp.rss_kB_per_conn", *MICRO_ROWS,
)


def is_host_row(name: str) -> bool:
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in HOST_PER_LAYER)


def load(path: str) -> dict:
    """(workload, trace) -> {seed: [metrics dict, ...]} in run order."""
    data = json.loads(Path(path).read_text())
    runs: dict = {}
    for run in data["runs"]:
        by_seed = runs.setdefault((run["workload"], run["trace"]), {})
        by_seed.setdefault(run["seed"], []).append(
            {name: m["value"] for name, m in run["metrics"].items()}
        )
    return runs


def pairs(a: dict, b: dict, metric: str) -> list[tuple[float, float]]:
    out = []
    for seed in sorted(set(a) & set(b)):
        for run_a, run_b in zip(a[seed], b[seed]):
            if metric in run_a and metric in run_b:
                out.append((run_a[metric], run_b[metric]))
    return out


def judge(values: list[tuple[float, float]], better: str, bound: float) -> dict:
    sign = -1.0 if better == "lower" else 1.0  # >0 means B is better
    wins = sum(1 for a, b in values if sign * (b - a) > 0)
    sa, sb = summarize([a for a, _ in values]), summarize([b for _, b in values])
    gap = sign * (sb["median"] - sa["median"])
    iqr_a = sa["q3"] - sa["q1"]
    if wins >= 0.9 * len(values) and len(values) >= 10 and gap > iqr_a:
        verdict = "gain"
    elif -gap > bound * abs(sa["median"]):
        verdict = "regression"
    elif spread(sa) > bound:
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"a": sa, "b": sb, "wins": wins, "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json") as f:
        schema = json.load(f)
    a_runs, b_runs = load(args.parent), load(args.change)
    regressions = 0

    print(f"{'workload':12s} {'metric':18s} {'pairs':>5s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'wins':>5s}  verdict")
    for workload in (w["name"] for w in schema["workloads"]):
        a, b = a_runs.get((workload, 0), {}), b_runs.get((workload, 0), {})
        for metric in schema["end_to_end"]:
            values = pairs(a, b, metric["name"])
            if not values:
                continue
            if metric["name"] in SIM_END_TO_END:
                same = all(x == y for x, y in values)
                print(f"{workload:12s} {metric['name']:18s} {len(values):5d} "
                      f"{'(deterministic, compared per seed)':>69s} {'':>7s} {'':>5s}  "
                      f"{'equal' if same else 'changed'}")
                continue
            j = judge(values, metric["better"], metric["bound"])
            regressions += j["verdict"] == "regression"
            sa, sb = j["a"], j["b"]
            print(
                f"{workload:12s} {metric['name']:18s} {len(values):5d} "
                f"{sa['median']:12.5g} [{sa['q1']:9.5g},{sa['q3']:9.5g}] "
                f"{sb['median']:12.5g} [{sb['q1']:9.5g},{sb['q3']:9.5g}] "
                f"{sb['median'] / sa['median']:7.3f} {j['wins']:2d}/{len(values):<2d}  {j['verdict']}"
            )

    print("\n# traced runs: deterministic rows that differ, then host-side rows (single samples)")
    for workload in (w["name"] for w in schema["workloads"]):
        a, b = a_runs.get((workload, 1), {}), b_runs.get((workload, 1), {})
        changed, host_rows = [], []
        for metric in schema["per_layer"]:
            values = pairs(a, b, metric["name"])
            if not values:
                continue
            if is_host_row(metric["name"]):
                x, y = values[0]
                if x:
                    host_rows.append(f"{metric['name']} {y / x:.2f}x")
            elif any(x != y for x, y in values):
                x, y = next((x, y) for x, y in values if x != y)
                changed.append(f"{metric['name']} {x:g} -> {y:g}")
        if a and b:
            print(f"{workload}: {'all counts equal' if not changed else 'changed: ' + '; '.join(changed)}")
            print(f"  host rows (B/A): {', '.join(host_rows)}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
