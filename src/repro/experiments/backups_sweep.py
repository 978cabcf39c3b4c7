"""Ablation A1: throughput vs chain length (number of backups).

The paper (§4.3) daisy-chains backups; every extra backup adds one more
acknowledgement-channel hop ahead of the primary's reply and one more
multicast copy at the redirector.  This sweep quantifies that cost.

Run with:  python -m repro.experiments.backups_sweep
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.metrics.tables import format_comparison
from repro.runtime import Task

from .testbeds import build_clean, build_primary_backup

DEFAULT_BACKUP_COUNTS = (0, 1, 2, 4)


def run_point(
    n_backups: Optional[int],
    size: int,
    nbuf: int = 1024,
    seed: int = 0,
    strategy: str = "chain",
) -> float:
    """One sweep point (``n_backups=None`` is the clean baseline);
    the shard unit the parallel runner fans out."""
    if n_backups is None:
        with build_clean(seed=seed) as run:
            return run.run(buflen=size, nbuf=nbuf).throughput_kB_per_sec
    with build_primary_backup(seed=seed, n_backups=n_backups, strategy=strategy) as run:
        result = run.run(buflen=size, nbuf=nbuf)
    if not result.completed:
        raise RuntimeError(f"backups={n_backups} @ {size}B incomplete")
    return result.throughput_kB_per_sec


def run_backups_sweep(
    backup_counts: Sequence[int] = DEFAULT_BACKUP_COUNTS,
    sizes: Sequence[int] = (256, 1024),
    nbuf: int = 1024,
    seed: int = 0,
) -> dict[str, list[float]]:
    """Returns series keyed ``backups=N`` (plus a clean baseline), one
    value per packet size."""
    results: dict[str, list[float]] = {
        "clean": [run_point(None, size, nbuf=nbuf, seed=seed) for size in sizes]
    }
    for n in backup_counts:
        results[f"backups={n}"] = [
            run_point(n, size, nbuf=nbuf, seed=seed) for size in sizes
        ]
    return results


def check_shape(results: dict[str, list[float]], backup_counts: Sequence[int]) -> list[str]:
    problems = []
    for i in range(len(backup_counts) - 1):
        lo_key = f"backups={backup_counts[i]}"
        hi_key = f"backups={backup_counts[i + 1]}"
        for j, (lo, hi) in enumerate(zip(results[lo_key], results[hi_key])):
            if hi > lo * 1.05:
                problems.append(
                    f"{hi_key} ({hi:.0f}) beat {lo_key} ({lo:.0f}) at size index {j}"
                )
    return problems


def _params(args: Sequence[str]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    fast = "--fast" in args
    sizes = (256, 1024)
    counts = (0, 1, 2) if fast else DEFAULT_BACKUP_COUNTS
    nbuf = 256 if fast else 1024
    return counts, sizes, nbuf


def shard(args: Sequence[str]) -> list[Task]:
    """Parallel-runner hook: one task per (chain length, size) point."""
    counts, sizes, nbuf = _params(args)
    tasks = [
        Task(
            key=f"clean@{size}",
            fn=run_point,
            kwargs={"n_backups": None, "size": size, "nbuf": nbuf},
            cost=float(size) * nbuf,
        )
        for size in sizes
    ]
    for n in counts:
        tasks.extend(
            Task(
                key=f"backups={n}@{size}",
                fn=run_point,
                kwargs={"n_backups": n, "size": size, "nbuf": nbuf},
                # Every backup adds an ack-channel hop: longer chains
                # simulate more events for the same byte count.
                cost=float(size) * nbuf * (2 + n),
            )
            for size in sizes
        )
    return tasks


def merge_shards(args: Sequence[str], values: dict[str, float]) -> int:
    """Parallel-runner hook: reassemble the sweep and print the exact
    report ``main`` prints."""
    counts, sizes, nbuf = _params(args)
    results = {"clean": [values[f"clean@{size}"] for size in sizes]}
    for n in counts:
        results[f"backups={n}"] = [values[f"backups={n}@{size}"] for size in sizes]
    return _report(results, counts, sizes, nbuf)


def _report(
    results: dict[str, list[float]],
    counts: Sequence[int],
    sizes: Sequence[int],
    nbuf: int,
) -> int:
    print(
        format_comparison(
            "A1: ttcp throughput [kB/s] vs number of backups",
            "size",
            list(sizes),
            results,
            note="(chain length = backups + 1 primary; 0 backups = redirected primary only)",
        )
    )
    problems = check_shape(results, counts)
    if problems:
        print("\nSHAPE CHECK FAILURES:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("\nShape check: OK (throughput non-increasing in chain length)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    # Serial path: run the same shard tasks inline, in canonical order.
    values = {task.key: task.fn(**task.kwargs) for task in shard(args)}
    return merge_shards(args, values)


if __name__ == "__main__":
    raise SystemExit(main())
