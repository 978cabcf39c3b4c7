"""``python -m repro`` — overview and experiment launcher.

Usage::

    python -m repro                 # show the overview
    python -m repro experiments     # run the full evaluation
    python -m repro experiments --fast
"""

import sys


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "experiments":
        from repro.experiments.runner import main as run_experiments

        return run_experiments(args[1:])
    if args and args[0] == "fuzz":
        from repro.invariants.fuzz import main as run_fuzz

        return run_fuzz(args[1:])
    if args and args[0] == "perf":
        from repro.metrics.perf import main as run_perf

        return run_perf(args[1:])
    if args and args[0] == "mesh":
        from repro.experiments.mesh_scaling import main as run_mesh

        return run_mesh(args[1:])
    import repro

    print(repro.__doc__)
    print("commands:")
    print("  python -m repro experiments [--fast]   run the full evaluation")
    print("  python -m repro experiments --jobs N   ... on N worker processes")
    print("  python -m repro fuzz --runs N --seed S fuzz fault schedules w/ monitors")
    print("  python -m repro fuzz --replay FILE     replay a saved reproducer")
    print("  python -m repro fuzz --backend all     fuzz every replication backend")
    print("  python -m repro perf [--check]         engine benchmark vs best committed baseline")
    print("  python -m repro perf --profile [DIR]   event histogram + cProfile breakdown")
    print("  python -m repro perf --scaling         scenario-throughput scaling sweep")
    print("  python -m repro mesh [--fast|--certify] datacenter-mesh scaling sweep (D5)")
    print("  python -m repro.experiments.figure4    just the paper's Figure 4")
    print("  python -m repro.experiments.recovery   D3 autonomous recovery demo")
    print("  pytest tests/                          the test suite")
    print("  pytest benchmarks/ --benchmark-only    benchmark harness")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
