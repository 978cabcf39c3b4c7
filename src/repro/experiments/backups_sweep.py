"""Ablation A1: throughput vs chain length (number of backups).

The paper (§4.3) daisy-chains backups; every extra backup adds one more
acknowledgement-channel hop ahead of the primary's reply and one more
multicast copy at the redirector.  This sweep quantifies that cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.metrics.tables import format_comparison
from repro.runtime import Task

from .experiment import Experiment
from .testbeds import build_clean, build_primary_backup

DEFAULT_BACKUP_COUNTS = (0, 1, 2, 4)


def run_point(
    n_backups: Optional[int],
    size: int,
    nbuf: int = 1024,
    seed: int = 0,
    strategy: str = "chain",
) -> float:
    """One sweep point (``n_backups=None`` is the clean baseline)."""
    if n_backups is None:
        with build_clean(seed=seed) as run:
            return run.run(buflen=size, nbuf=nbuf).throughput_kB_per_sec
    with build_primary_backup(seed=seed, n_backups=n_backups, strategy=strategy) as run:
        result = run.run(buflen=size, nbuf=nbuf)
    if not result.completed:
        raise RuntimeError(f"backups={n_backups} @ {size}B incomplete")
    return result.throughput_kB_per_sec


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


def _params(fast: bool) -> tuple[tuple, tuple[int, ...], int]:
    """Chain lengths (``None`` = the clean baseline), sizes and nbuf."""
    counts = (0, 1, 2) if fast else DEFAULT_BACKUP_COUNTS
    return (None, *counts), (256, 1024), 256 if fast else 1024


def _series(n_backups: Optional[int]) -> str:
    return "clean" if n_backups is None else f"backups={n_backups}"


def _points(fast: bool) -> list[Task]:
    counts, sizes, nbuf = _params(fast)
    return [
        # Every backup adds an ack-channel hop: longer chains simulate
        # more events for the same byte count.
        Task(f"{_series(n)}@{size}", run_point,
             kwargs={"n_backups": n, "size": size, "nbuf": nbuf},
             cost=nbuf * 4e-5 * (1 + (n or 0)))
        for n in counts
        for size in sizes
    ]


def _report(fast: bool, values: dict[str, float]) -> list[str]:
    counts, sizes, _nbuf = _params(fast)
    results = {
        _series(n): [values[f"{_series(n)}@{size}"] for size in sizes] for n in counts
    }
    print(
        format_comparison(
            "A1: ttcp throughput [kB/s] vs number of backups",
            "size",
            list(sizes),
            results,
            note="(chain length = backups + 1 primary; 0 backups = redirected primary only)",
        )
    )
    return check_shape(results, counts[1:])


EXPERIMENT = Experiment(
    "A1 backups sweep", _points, _report, ok="throughput non-increasing in chain length"
)
