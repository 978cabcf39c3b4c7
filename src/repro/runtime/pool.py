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
  and stored after success, so re-runs of unchanged scenarios are free;
* **chunked dispatch** — when a batch is much larger than the worker
  count, runs of small timeout-free tasks sharing one callable are
  handed out several per pipe round-trip (``fn`` pickled once per
  chunk), shrinking toward single-task dispatch as the queue drains so
  the tail still load-balances.

``jobs=1`` never spawns a process: the batch runs inline, in
scheduling order, with the same stdout capture and cache behaviour.
Combined with the deterministic reducer (:mod:`repro.runtime.merge`)
this makes ``--jobs N`` output byte-identical to a serial run.

Workers receive *data*, not state: a task is ``(fn, args, kwargs)``
where ``fn`` is a module-level callable and the arguments are plain
values (typically just an integer seed), so a forked and a freshly
spawned worker compute the identical result.  The start method comes
from ``REPRO_POOL_START_METHOD`` (default: ``fork`` where available).
"""

from __future__ import annotations

import io
import itertools
import os
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Optional

__all__ = ["Task", "TaskOutcome", "PoolStats", "ScenarioPool", "default_start_method"]


def default_start_method() -> str:
    """``REPRO_POOL_START_METHOD`` env override, else ``fork`` on
    platforms that have it (cheap, inherits the warm import state),
    else ``spawn``."""
    import multiprocessing

    env = os.environ.get("REPRO_POOL_START_METHOD")
    if env:
        return env
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


def _worker_main(conn, worker_index: int, pin_core: Optional[int]) -> None:
    """Worker loop: receive ``(fn, [(key, args, kwargs), ...])`` — one
    callable, a chunk of argument sets — and stream one outcome tuple
    back per task.  Chunking amortizes the pipe round-trip and pickles
    ``fn`` once per chunk instead of once per task.  ``None`` is the
    shutdown sentinel."""
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
            fn, items = msg
            for key, args, kwargs in items:
                status, value, error, out, wall = _execute(fn, args, kwargs)
                try:
                    conn.send((key, status, value, error, out, wall))
                except Exception as exc:
                    # Connection.send pickles before writing, so a failed
                    # pickle leaves the pipe clean and we can still report.
                    conn.send(
                        (key, "error", None, f"result not picklable: {exc!r}", out, wall)
                    )
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class _Worker:
    """Parent-side handle: process + duplex pipe + current assignment
    (a chunk of one or more tasks, consumed front to back as results
    stream in)."""

    __slots__ = ("process", "conn", "index", "pin_core", "tasks", "started_at")

    def __init__(self, ctx, index: int, pin_core: Optional[int]):
        self.pin_core = pin_core
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, index, pin_core),
            daemon=True,
            name=f"repro-pool-{index}",
        )
        self.process.start()
        child_conn.close()
        self.index = index
        self.tasks: list[Task] = []
        self.started_at = 0.0

    def assign(self, chunk: list[Task]) -> None:
        self.tasks = list(chunk)
        self.started_at = time.perf_counter()
        self.conn.send(
            (
                chunk[0].fn,
                [(t.key, tuple(t.args), dict(t.kwargs)) for t in chunk],
            )
        )

    def deadline(self) -> Optional[float]:
        # Only single-task assignments carry timeouts (the chunker
        # never groups tasks that have one), so the head task's
        # deadline is the worker's deadline.
        if not self.tasks or self.tasks[0].timeout is None:
            return None
        return self.started_at + self.tasks[0].timeout

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
        default_timeout: Optional[float] = None,
        start_method: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.default_timeout = default_timeout
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

        pending: list[Task] = []
        for task in tasks:
            if task.timeout is None and self.default_timeout is not None:
                task.timeout = self.default_timeout
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
                status, value, error, out, wall = _execute(
                    task.fn, task.args, task.kwargs
                )
                outcome = TaskOutcome(
                    key=task.key,
                    status=status,
                    value=value,
                    error=error,
                    stdout=out,
                    wall_seconds=wall,
                    worker=0,
                )
                if outcome.ok and self.cache is not None and task.fingerprint:
                    self.cache.put(task, outcome)
                record(outcome)
            self.stats.wall_seconds += time.perf_counter() - batch_start
            return outcomes

        self._run_pooled(queue, record)
        self.stats.wall_seconds += time.perf_counter() - batch_start
        return outcomes

    def run_one(self, task: Task) -> TaskOutcome:
        """Run a single task through the pool (one worker busy, the
        rest idle).  The fuzzer's shrink loop uses this: candidate
        replays are inherently sequential but still get the pool's
        isolation, timeout, and crash containment."""
        return self.run([task])[task.key]

    def _chunk_limit(self, remaining: int) -> int:
        """How many tasks to hand out per pipe round-trip.

        When the batch is much larger than the worker count, per-task
        round-trips dominate small tasks (PR 5 measured jobs>1 at
        0.84–0.91x of serial for 50 tiny scenarios).  Chunks amortize
        that, but shrink toward 1 as the queue drains so the tail still
        load-balances longest-job-first.
        """
        return max(1, min(8, remaining // (self.jobs * 4)))

    def _take_chunk(self, queue: list[Task]) -> list[Task]:
        """Pop the next dispatch chunk: the head task plus, when safe,
        up to the chunk limit of its immediate successors.  Only tasks
        sharing the head's callable (so ``fn`` pickles once) and
        carrying no timeout (so the deadline sweep stays exact) are
        grouped; anything else dispatches alone, exactly as before."""
        chunk = [queue.pop(0)]
        head = chunk[0]
        if head.timeout is not None:
            return chunk
        limit = self._chunk_limit(len(queue) + 1)
        while (
            len(chunk) < limit
            and queue
            and queue[0].fn is head.fn
            and queue[0].timeout is None
        ):
            chunk.append(queue.pop(0))
        return chunk

    def _run_pooled(self, queue: list[Task], record) -> None:
        queue = list(queue)  # consumed front to back
        busy: list[_Worker] = []

        def dispatch() -> None:
            while queue and (len(busy) < self.jobs):
                idle = [w for w in self._workers if not w.tasks]
                worker = idle[0] if idle else self._spawn_worker()
                chunk = self._take_chunk(queue)
                try:
                    worker.assign(chunk)
                except (OSError, BrokenPipeError):
                    # Worker already dead (e.g. killed by a previous
                    # batch's fallout): replace it and retry the tasks.
                    self._discard_worker(worker)
                    queue[:0] = chunk
                    continue
                busy.append(worker)

        dispatch()
        while busy:
            now = time.perf_counter()
            timeout = None
            for worker in busy:
                deadline = worker.deadline()
                if deadline is not None:
                    remaining = max(deadline - now, 0.0)
                    timeout = remaining if timeout is None else min(timeout, remaining)
            ready = _conn_wait([w.conn for w in busy], timeout=timeout)

            for worker in list(busy):
                if worker.conn not in ready:
                    continue
                # Drain every buffered result: a chunked worker streams
                # one message per task, and several may already be in
                # the pipe by the time wait() wakes us.
                while worker.tasks:
                    task = worker.tasks[0]
                    try:
                        key, status, value, error, out, wall = worker.conn.recv()
                    except (EOFError, OSError):
                        # The worker died mid-task: contain the blast
                        # radius to the task that was running, requeue
                        # the rest of its chunk (they never started),
                        # and replace the worker.  The pipe EOF can
                        # beat process reaping, so give the child a
                        # moment to be waited on before reading its
                        # exit code.
                        worker.process.join(timeout=1.0)
                        exitcode = worker.process.exitcode
                        unstarted = worker.tasks[1:]
                        busy.remove(worker)
                        self._discard_worker(worker)
                        self.stats.respawns += 1
                        queue[:0] = unstarted
                        record(
                            TaskOutcome(
                                key=task.key,
                                status="crashed",
                                error=f"worker died (exit code {exitcode})",
                                wall_seconds=time.perf_counter() - worker.started_at,
                                worker=worker.index,
                            )
                        )
                        dispatch()
                        break
                    worker.tasks.pop(0)
                    outcome = TaskOutcome(
                        key=key,
                        status=status,
                        value=value,
                        error=error,
                        stdout=out,
                        wall_seconds=wall,
                        worker=worker.index,
                    )
                    if outcome.ok and self.cache is not None and task.fingerprint:
                        self.cache.put(task, outcome)
                    record(outcome)
                    if not worker.tasks:
                        busy.remove(worker)
                        dispatch()
                        break
                    if not worker.conn.poll():
                        break

            # Deadline sweep: kill overdue workers, fail only their task
            # (timeouts never chunk, so exactly one task is affected).
            now = time.perf_counter()
            for worker in list(busy):
                deadline = worker.deadline()
                if deadline is None or now < deadline:
                    continue
                task = worker.tasks[0]
                busy.remove(worker)
                self._discard_worker(worker)
                self.stats.respawns += 1
                record(
                    TaskOutcome(
                        key=task.key,
                        status="timeout",
                        error=f"task exceeded {task.timeout:.1f}s timeout",
                        wall_seconds=now - worker.started_at,
                        worker=worker.index,
                    )
                )
                dispatch()
