#!/usr/bin/env python
"""A reduced Figure 4 run: ttcp throughput vs packet size for the four
measurement configurations of the paper's §5, printed side by side with
the published reference values.

Run:  python examples/throughput_survey.py          (~5 s)
      python -m repro experiments --only "Figure 4"  # full sweep
"""

from repro.experiments.figure4 import PAPER_REFERENCE, check_shape, run_figure4
from repro.metrics.tables import format_comparison

SIZES = (16, 64, 256, 1024)
NBUF = 512


def main():
    print("running ttcp sweeps (4 configurations x 4 packet sizes)...\n")
    results = run_figure4(sizes=SIZES, nbuf=NBUF)
    print(
        format_comparison(
            "Measured: ttcp throughput [kB/s] (this reproduction)",
            "size",
            list(SIZES),
            results,
        )
    )
    print()
    indices = [list((16, 32, 64, 128, 256, 512, 1024)).index(s) for s in SIZES]
    reference = {
        config: [series[i] for i in indices]
        for config, series in PAPER_REFERENCE.items()
    }
    print(
        format_comparison(
            "Paper Figure 4 (approximate) [kB/s]",
            "size",
            list(SIZES),
            reference,
        )
    )
    problems = check_shape(results)
    print()
    if problems:
        for p in problems:
            print(f"shape problem: {p}")
        raise SystemExit(1)
    ratio = results["primary_backup"][0] / results["clean"][0]
    print(f"fault-tolerance cost at 16B packets: {1 - ratio:.0%} (paper: ~33%)")
    ratio_big = results["primary_backup"][-1] / results["clean"][-1]
    print(f"fault-tolerance cost at 1024B packets: {1 - ratio_big:.0%} (paper: ~22%, "
          "see EXPERIMENTS.md on the difference)")
    print("shape check: OK")


if __name__ == "__main__":
    main()
