"""Parallel scenario-execution layer (DESIGN.md §12).

Three pieces, used together by the experiment runner, the fuzzer and
the mesh sweep:

* :mod:`repro.runtime.pool` — a process-pool scheduler for batches of
  independent seed-deterministic simulations (longest-job-first
  dispatch, per-task timeouts, crash containment, ``jobs=1`` inline
  fast path);
* :mod:`repro.runtime.merge` — deterministic reduction: results are
  reassembled in canonical key order so parallel output is
  byte-identical to a serial run;
* :mod:`repro.runtime.cache` — an on-disk result cache keyed by
  ``(source fingerprint, scenario fingerprint)`` so re-runs of
  unchanged scenarios are free.
"""

from .cache import ResultCache, default_cache_dir, source_fingerprint, task_fingerprint
from .merge import DeterministicMerger
from .pool import PoolStats, ScenarioPool, Task, TaskOutcome, default_start_method, positive

__all__ = [
    "DeterministicMerger",
    "PoolStats",
    "ResultCache",
    "ScenarioPool",
    "Task",
    "TaskOutcome",
    "default_cache_dir",
    "default_start_method",
    "positive",
    "source_fingerprint",
    "task_fingerprint",
]
