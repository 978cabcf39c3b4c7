#!/usr/bin/env python3
"""Collect a result set: ``run.py`` on every workload for a list of seeds.

    python3 bench/collect.py --out A.json --seeds 1-10 [--traced-seeds 1]

The result set is what ``compare.py`` reads.  Runs are appended to
``--out`` if it exists, so parent and change can be measured in
alternation, one seed at a time (README.md §Comparing two commits).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no result\n{done.stderr}")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: not correct\n{done.stderr}")
    return result


def main(argv=None) -> int:
    with open(HERE.parent / "BENCHMARK.json") as f:
        schema = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="", help="seeds that also get a traced run")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in schema["workloads"]))
    parser.add_argument("--seconds", type=float, default=schema["run_seconds"])
    args = parser.parse_args(argv)

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {"meta": {}, "runs": []}
    data["meta"].update(
        python=platform.python_version(), nproc=os.cpu_count(), machine=platform.machine(),
        run_seconds=args.seconds,
    )
    traced = set(parse_seeds(args.traced_seeds))
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            for trace in (0, 1) if seed in traced else (0,):
                result = run_once(workload, seed, args.seconds, trace)
                data["runs"].append(
                    {"workload": workload, "seed": seed, "trace": trace, **result}
                )
                print(f"{workload} seed {seed} trace {trace}: ok", flush=True)
                out.write_text(json.dumps(data, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
