"""Process-pool scenario scheduler (DESIGN.md §12).

Every workload this repository cares about — the experiment suite, the
fault-schedule fuzzer, the mesh sweep — is a *batch of independent,
seed-deterministic simulations*.  :class:`ScenarioPool` fans such a
batch out to ``jobs`` worker processes:

* **longest-job-first dispatch** — tasks carry a ``cost`` hint and the
  scheduler hands the most expensive ones out first, so the batch's
  wall clock is bounded by ``max(longest task, total/jobs)`` instead of
  whatever the submission order happened to be;
* **per-task timeouts** — a worker that blows its deadline is killed
  and only *that* task is marked ``timeout``; the batch carries on in a
  replacement worker;
* **crash containment** — a task that takes its worker down (segfault,
  ``os._exit``, unpicklable result) is marked ``crashed``/``error`` and
  the batch carries on;
* **result caching** — tasks with a ``fingerprint`` are looked up in an
  optional :class:`~repro.runtime.cache.ResultCache` before dispatch
  and stored after success, so re-runs of unchanged scenarios are free.

``jobs=1`` never spawns a process: the batch runs inline, in
scheduling order, with the same stdout capture and cache behaviour.
Combined with the deterministic reducer (:mod:`repro.runtime.merge`)
this makes ``--jobs N`` output byte-identical to a serial run.

Workers receive *data*, not state: a task is ``(fn, args, kwargs)``
where ``fn`` is a module-level callable and the arguments are plain
values (typically just an integer seed), so a forked and a freshly
spawned worker compute the identical result.  The start method is
``fork`` where available, else ``spawn``.
"""

from __future__ import annotations

import io
import itertools
import os
import time
import traceback
from argparse import ArgumentTypeError
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Optional

__all__ = ["Task", "TaskOutcome", "PoolStats", "ScenarioPool", "default_start_method", "positive"]


def positive(kind):
    """Flag type for a pool parameter (``--jobs``, ``--task-timeout``):
    ``kind(text)``, rejected (exit 2, usage line) unless > 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def default_start_method() -> str:
    """``fork`` on platforms that have it (cheap, inherits the warm
    import state), else ``spawn``."""
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass
class Task:
    """One schedulable unit: a picklable module-level callable plus
    plain-data arguments.

    ``key`` must be unique within a batch — it is the canonical
    identity the deterministic merge reorders by.  ``cost`` is a
    relative wall-clock hint for longest-job-first dispatch (any
    monotone proxy works; bytes transferred, simulated seconds…).
    ``fingerprint`` opts the task into the result cache; leave ``None``
    for uncacheable work (e.g. shrink candidates)."""

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    cost: float = 1.0
    timeout: Optional[float] = None
    fingerprint: Optional[str] = None


@dataclass
class TaskOutcome:
    """What became of one task."""

    key: str
    status: str  # "ok" | "error" | "timeout" | "crashed"
    value: Any = None
    error: Optional[str] = None
    stdout: str = ""
    wall_seconds: float = 0.0
    worker: int = -1
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class PoolStats:
    """Aggregate figures for the life of one :class:`ScenarioPool`."""

    jobs: int
    tasks: int = 0
    cache_hits: int = 0
    errors: int = 0
    timeouts: int = 0
    crashes: int = 0
    respawns: int = 0
    wall_seconds: float = 0.0
    task_seconds: float = 0.0


def _execute(fn, args, kwargs):
    """Run one task, capturing stdout; never raises."""
    buf = io.StringIO()
    started = time.perf_counter()
    try:
        with redirect_stdout(buf):
            value = fn(*args, **kwargs)
        return "ok", value, None, buf.getvalue(), time.perf_counter() - started
    except Exception:
        return (
            "error",
            None,
            traceback.format_exc(),
            buf.getvalue(),
            time.perf_counter() - started,
        )


def _worker_main(conn, pin_core: Optional[int]) -> None:
    """Worker loop: receive one ``(fn, args, kwargs)`` at a time and
    send its outcome tuple back.  ``None`` is the shutdown sentinel."""
    if pin_core is not None:
        try:
            os.sched_setaffinity(0, {pin_core})
        except (AttributeError, OSError):
            pass  # non-Linux or restricted affinity: run unpinned
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            status, value, error, out, wall = _execute(*msg)
            try:
                conn.send((status, value, error, out, wall))
            except Exception as exc:
                # Connection.send pickles before writing, so a failed
                # pickle leaves the pipe clean and we can still report.
                conn.send(("error", None, f"result not picklable: {exc!r}", out, wall))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class _Worker:
    """Parent-side handle: process + duplex pipe + the task it is
    running (``None`` while idle)."""

    __slots__ = ("process", "conn", "index", "pin_core", "task", "started_at")

    def __init__(self, ctx, index: int, pin_core: Optional[int]):
        self.pin_core = pin_core
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, pin_core),
            daemon=True,
            name=f"repro-pool-{index}",
        )
        self.process.start()
        child_conn.close()
        self.index = index
        self.task: Optional[Task] = None
        self.started_at = 0.0

    def assign(self, task: Task) -> None:
        self.task = task
        self.started_at = time.perf_counter()
        self.conn.send((task.fn, task.args, task.kwargs))

    def deadline(self) -> Optional[float]:
        timeout = self.task.timeout
        return None if timeout is None else self.started_at + timeout

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=2.0)


class ScenarioPool:
    """Run batches of independent tasks over ``jobs`` persistent worker
    processes (see the module docstring for the scheduling contract).

    Use as a context manager, or call :meth:`close` when done.  Where
    the process may run on at least ``jobs`` cores, each worker is
    pinned to one of its own (best effort), so workers neither share a
    core nor migrate; elsewhere they run unpinned.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache=None,
        start_method: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        try:
            cores = sorted(os.sched_getaffinity(0))
        except AttributeError:  # not Linux
            cores = []
        #: One core per worker, or nothing to pin to.
        self._cores = cores if len(cores) >= jobs else []
        self._ctx = get_context(start_method or default_start_method())
        self._workers: list[_Worker] = []
        self._next_index = itertools.count()
        self._closed = False
        self.stats = PoolStats(jobs=jobs)

    # -- worker lifecycle --------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        index = next(self._next_index)
        taken = {w.pin_core for w in self._workers}
        pin = next((c for c in self._cores if c not in taken), None)
        worker = _Worker(self._ctx, index, pin)
        self._workers.append(worker)
        return worker

    def _discard_worker(self, worker: _Worker) -> None:
        worker.kill()
        if worker in self._workers:
            self._workers.remove(worker)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            worker.kill()
        self._workers.clear()

    def __enter__(self) -> "ScenarioPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduling --------------------------------------------------------

    def run(
        self,
        tasks: list[Task],
        on_result: Optional[Callable[[TaskOutcome], None]] = None,
    ) -> dict[str, TaskOutcome]:
        """Run a batch; returns ``{task.key: TaskOutcome}``.

        ``on_result`` fires once per task *in completion order* (cache
        hits first) — wrap it in a
        :class:`~repro.runtime.merge.DeterministicMerger` to stream
        output in canonical order instead.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate task keys in batch: {dupes}")

        batch_start = time.perf_counter()
        outcomes: dict[str, TaskOutcome] = {}

        def record(outcome: TaskOutcome) -> None:
            outcomes[outcome.key] = outcome
            self.stats.tasks += 1
            self.stats.task_seconds += outcome.wall_seconds
            if outcome.cached:
                self.stats.cache_hits += 1
            elif outcome.status == "error":
                self.stats.errors += 1
            elif outcome.status == "timeout":
                self.stats.timeouts += 1
            elif outcome.status == "crashed":
                self.stats.crashes += 1
            if on_result is not None:
                on_result(outcome)

        def complete(task: Task, worker: int, status, value, error, out, wall) -> None:
            outcome = TaskOutcome(task.key, status, value, error, out, wall, worker)
            if outcome.ok and self.cache is not None and task.fingerprint:
                self.cache.put(task, outcome)
            record(outcome)

        pending: list[Task] = []
        for task in tasks:
            hit = self.cache.get(task) if self.cache is not None else None
            if hit is not None:
                record(hit)
            else:
                pending.append(task)

        # Longest job first; ties broken by submission order so the
        # schedule itself is deterministic.
        order = sorted(range(len(pending)), key=lambda i: (-pending[i].cost, i))
        queue = [pending[i] for i in order]

        if self.jobs == 1:
            for task in queue:
                complete(task, 0, *_execute(task.fn, task.args, task.kwargs))
        else:
            self._run_pooled(queue, record, complete)
        self.stats.wall_seconds += time.perf_counter() - batch_start
        return outcomes

    def run_one(self, task: Task) -> TaskOutcome:
        """Run a single task through the pool (one worker busy, the
        rest idle).  The fuzzer's shrink loop uses this: candidate
        replays are inherently sequential but still get the pool's
        isolation, timeout, and crash containment."""
        return self.run([task])[task.key]

    def _run_pooled(self, queue: list[Task], record, complete) -> None:
        busy: list[_Worker] = []

        def dispatch() -> None:
            while queue and len(busy) < self.jobs:
                idle = [w for w in self._workers if w.task is None]
                worker = idle[0] if idle else self._spawn_worker()
                task = queue.pop(0)
                try:
                    worker.assign(task)
                except (OSError, BrokenPipeError):
                    # Worker already dead (e.g. killed by a previous
                    # batch's fallout): replace it and retry the task.
                    self._discard_worker(worker)
                    queue.insert(0, task)
                    continue
                busy.append(worker)

        def fail(worker: _Worker, status: str, error: str) -> None:
            """Replace ``worker`` and mark only its task ``status``."""
            task = worker.task
            busy.remove(worker)
            self._discard_worker(worker)
            self.stats.respawns += 1
            wall = time.perf_counter() - worker.started_at
            record(TaskOutcome(task.key, status, None, error, "", wall, worker.index))

        dispatch()
        while busy:
            deadlines = [d for d in (w.deadline() for w in busy) if d is not None]
            timeout = max(min(deadlines) - time.perf_counter(), 0.0) if deadlines else None
            ready = _conn_wait([w.conn for w in busy], timeout=timeout)

            for worker in list(busy):
                if worker.conn not in ready:
                    continue
                try:
                    result = worker.conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-task.  The pipe EOF can beat
                    # process reaping, so give the child a moment to be
                    # waited on before reading its exit code.
                    worker.process.join(timeout=1.0)
                    exitcode = worker.process.exitcode
                    fail(worker, "crashed", f"worker died (exit code {exitcode})")
                else:
                    task, worker.task = worker.task, None
                    busy.remove(worker)
                    complete(task, worker.index, *result)
                dispatch()

            # Deadline sweep: kill overdue workers, fail only their task.
            now = time.perf_counter()
            for worker in list(busy):
                deadline = worker.deadline()
                if deadline is not None and now >= deadline:
                    fail(worker, "timeout", f"task exceeded {worker.task.timeout:.1f}s timeout")
                    dispatch()
