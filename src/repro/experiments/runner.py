"""Run the reproduction's experiments and print the full report.

Usage::

    python -m repro experiments [--fast] [--jobs N] [--only SUBSTR]
                                [--report PATH] [--cache [--cache-dir D]]
                                [--task-timeout SECONDS] [--certify]

Every experiment module exports one :class:`~.experiment.Experiment`
record and :data:`EXPERIMENTS` lists them; this module is the only
entry point.  It fans every point of every selected experiment out over
``--jobs`` worker processes (:mod:`repro.runtime`) and prints the
reports strictly in declaration order, so stdout is byte-identical at
every jobs level; wall-clock timing goes to stderr and to the
``--report`` JSON instead.

``--only SUBSTR`` selects experiments by title substring; ``--report``
writes a JSON summary (status, wall time, and every point's key,
arguments and value); ``--cache`` memoizes points on disk keyed by
(source fingerprint, scenario fingerprint) so re-runs of unchanged
scenarios are free.  ``--certify`` runs the selected experiments'
acceptance scenarios instead, each inline and in a pool worker, and
requires the two values to be equal.  ``python -m repro mesh`` is this
runner fixed to D5 (``main(argv, "mesh")``): same flags but no
``--only``.  Exit codes: 0 all OK, 1 a failure, 2 bad arguments or no
experiment selected.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
import traceback
from argparse import ArgumentParser
from pathlib import Path
from typing import Any, Optional

from repro.runtime import ResultCache, ScenarioPool, Task, positive, task_fingerprint

from . import (
    ack_channel_loss,
    backups_sweep,
    detector_comparison,
    failover,
    figure4,
    fragmentation,
    gray_failures,
    mesh_scaling,
    ordered_channel,
    partition,
    receive_path,
    recovery,
    replication_backends,
    scaling_benefit,
)
from .experiment import Experiment

EXPERIMENTS: list[Experiment] = [
    figure4.EXPERIMENT,
    backups_sweep.EXPERIMENT,
    failover.EXPERIMENT,
    ack_channel_loss.EXPERIMENT,
    fragmentation.EXPERIMENT,
    receive_path.EXPERIMENT,
    ordered_channel.EXPERIMENT,
    detector_comparison.EXPERIMENT,
    scaling_benefit.EXPERIMENT,
    recovery.EXPERIMENT,
    partition.EXPERIMENT,
    mesh_scaling.EXPERIMENT,
    gray_failures.EXPERIMENT,
    replication_backends.EXPERIMENT,
]


def build_parser(command: str = "experiments") -> ArgumentParser:
    """The parser of ``python -m repro <command>``: ``experiments``, or
    ``mesh``, which has no ``--only`` and always selects D5."""
    parser = ArgumentParser(
        prog=f"python -m repro {command}",
        description="Run the HydraNet-FT evaluation suite.",
    )
    parser.add_argument("--fast", action="store_true", help="shrink the sweeps (CI)")
    parser.add_argument(
        "--jobs", type=positive(int), default=1, metavar="N",
        help="worker processes (default 1 = serial, in-process)",
    )
    if command == "mesh":
        parser.set_defaults(only="D5")
    else:
        parser.add_argument(
            "--only", metavar="SUBSTR", default=None,
            help="run only experiments whose title contains SUBSTR (case-insensitive)",
        )
    parser.add_argument(
        "--report", type=Path, metavar="PATH", default=None,
        help="write a JSON summary (per-experiment status, wall time, point values)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="memoize scenario results on disk (invalidated on source change)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    parser.add_argument(
        "--task-timeout", type=positive(float), default=900.0, metavar="SECONDS",
        help="per-task timeout when --jobs > 1 (default 900)",
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="run the acceptance scenarios (inline and pooled, values must match)",
    )
    return parser


def _jsonable(value: Any) -> Any:
    """Plain JSON data for a point's kwargs or value (dataclasses become
    dicts, tuples lists, non-finite floats and other objects strings)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


_CERTIFY_OK = "inline and pooled values equal, acceptance checks pass"


def _verdict(problems: list[str], ok: str, certify: bool) -> bool:
    if problems:
        print("\nCERTIFY FAILURES:" if certify else "\nSHAPE CHECK FAILURES:")
        for problem in problems:
            print(f"  - {problem}")
        return False
    print(f"\n{'Certify' if certify else 'Shape check'}: OK ({ok})")
    return True


def _run(tasks: list[Task], jobs: int, cache=None):
    with ScenarioPool(jobs=jobs, cache=cache) as pool:
        return pool.run(tasks), pool.stats.task_seconds


def _section(exp: Experiment, tasks: list[Task], outcomes, pooled, opts) -> dict:
    """Print one experiment's section; returns its ``--report`` row.
    ``pooled`` holds the pool-worker outcomes of a certify run."""
    banner = f"### {exp.title} ###"
    print("\n" + "#" * len(banner))
    print(banner)
    print("#" * len(banner) + "\n")
    keys = [task.key for task in tasks]
    outs = [outcomes[key] for key in keys] + [pooled[key] for key in keys if pooled]
    errors = []
    for o in outs:
        if not o.ok:
            print(f"TASK {o.key} {o.status.upper()}:")
            if o.stdout:
                print(o.stdout, end="")
            print(o.error or "(no traceback)")
            errors.append({"task": o.key, "status": o.status, "error": o.error})
    ok = False
    if not errors:
        values = {key.split("/", 1)[1]: outcomes[key].value for key in keys}
        try:
            if opts.certify:
                problems = [
                    f"{key}: the pooled run's value differs from the inline run's"
                    for key in keys
                    if pooled[key].value != outcomes[key].value
                ] + exp.certify.check(values)
            else:
                problems = exp.report(opts.fast, values)
        except Exception:
            # A broken report fails its own experiment, not the batch.
            key = keys[0].split("/", 1)[0] + "/report"
            error = traceback.format_exc()
            print(f"TASK {key} ERROR:")
            print(error, end="")
            errors.append({"task": key, "status": "error", "error": error})
        else:
            ok = _verdict(problems, _CERTIFY_OK if opts.certify else exp.ok, opts.certify)
    print(f"\n[{exp.title}: {'OK' if ok else 'FAILED'}]")
    return {
        "title": exp.title,
        "status": "ok" if ok else "failed",
        # Serial-equivalent seconds: the sum of this experiment's task
        # walls regardless of jobs level.
        "wall_seconds": round(sum(o.wall_seconds for o in outs), 3),
        "tasks": len(outs),
        "cached": sum(1 for o in outs if o.cached),
        "errors": errors,
        "points": [
            {
                "key": task.key.split("/", 1)[1],
                "kwargs": _jsonable(task.kwargs),
                "value": _jsonable(outcomes[task.key].value),
            }
            for task in tasks
        ],
    }


def main(argv: Optional[list[str]] = None, command: str = "experiments") -> int:
    opts = build_parser(command).parse_args(argv)
    candidates = [
        (idx, exp)
        for idx, exp in enumerate(EXPERIMENTS)
        if exp.certify is not None or not opts.certify
    ]
    selected = [
        (idx, exp)
        for idx, exp in candidates
        if opts.only is None or opts.only.lower() in exp.title.lower()
    ]
    if not selected:
        kind = "certifiable experiment" if opts.certify else "experiment"
        print(f"no {kind} title matches --only {opts.only!r}; titles are:")
        for _idx, exp in candidates:
            print(f"  - {exp.title}")
        return 2

    # One task per point; keys embed the declaration index so canonical
    # order is declaration order.
    points: dict[int, list[Task]] = {}
    for idx, exp in selected:
        points[idx] = exp.certify.points() if opts.certify else exp.points(opts.fast)
        for task in points[idx]:
            task.key = f"{idx:02d}/{task.key}"
            task.timeout = opts.task_timeout
            task.fingerprint = task_fingerprint(task)
    tasks = [task for idx, _exp in selected for task in points[idx]]

    # A certify run computes every value twice, inline then in a pool
    # worker, and never reads the cache.
    cache = ResultCache(root=opts.cache_dir) if opts.cache and not opts.certify else None
    batch_start = time.time()
    outcomes, task_seconds = _run(tasks, 1 if opts.certify else opts.jobs, cache)
    pooled = {}
    if opts.certify:
        pooled, pooled_seconds = _run(tasks, max(2, opts.jobs))
        task_seconds += pooled_seconds
    total_wall = time.time() - batch_start

    # Deterministic report assembly, strictly in declaration order.
    report_rows = [
        _section(exp, points[idx], outcomes, pooled, opts) for idx, exp in selected
    ]
    failures = [row["title"] for row in report_rows if row["status"] != "ok"]
    print("\n" + "=" * 60)
    if failures:
        print("FAILED experiments:")
        for title in failures:
            print(f"  - {title}")
    else:
        checks = "certify" if opts.certify else "shape"
        print(f"All {len(selected)} experiments completed with {checks} checks OK.")

    # Wall-clock is machine- and jobs-dependent: keep it off stdout so
    # serial and parallel runs stay byte-identical there.
    print(
        f"[runner: {len(tasks)} tasks, jobs={opts.jobs}, "
        f"{total_wall:.1f}s wall, {task_seconds:.1f}s task time, "
        f"{cache.hits if cache else 0} cache hits]",
        file=sys.stderr,
    )

    if opts.report is not None:
        report = {
            "jobs": opts.jobs,
            "fast": opts.fast,
            "only": opts.only,
            "certify": opts.certify,
            "cores": os.cpu_count(),
            "total_wall_seconds": round(total_wall, 3),
            "task_seconds": round(task_seconds, 3),
            "experiments": report_rows,
            "cache": {
                "enabled": cache is not None,
                "hits": cache.hits if cache else 0,
                "misses": cache.misses if cache else 0,
                "dir": str(cache.root) if cache else None,
            },
        }
        opts.report.parent.mkdir(parents=True, exist_ok=True)
        opts.report.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
