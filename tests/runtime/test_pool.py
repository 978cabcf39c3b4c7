"""ScenarioPool: scheduling, containment, and the jobs=1 fast path."""

import multiprocessing

import pytest

from repro.runtime import ScenarioPool, Task, TaskOutcome

from .helpers import (
    die_hard,
    raise_value_error,
    record_order,
    sleep_forever,
    square,
    square_loud,
    unpicklable,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _values(outcomes):
    return {k: o.value for k, o in outcomes.items()}


class TestInline:
    """jobs=1 never spawns a process."""

    def test_runs_and_captures_stdout(self):
        with ScenarioPool(jobs=1) as pool:
            outcomes = pool.run(
                [Task(key=f"t{i}", fn=square_loud, args=(i,)) for i in range(4)]
            )
        assert _values(outcomes) == {"t0": 0, "t1": 1, "t2": 4, "t3": 9}
        assert outcomes["t3"].stdout == "squaring 3\n"
        assert all(o.ok for o in outcomes.values())

    def test_longest_job_first_execution_order(self, tmp_path):
        path = tmp_path / "order.txt"
        tasks = [
            Task(key=f"t{i}", fn=record_order, args=(i, str(path)), cost=float(i))
            for i in range(5)
        ]
        with ScenarioPool(jobs=1) as pool:
            pool.run(tasks)
        assert path.read_text().split() == ["4", "3", "2", "1", "0"]

    def test_error_contained(self):
        with ScenarioPool(jobs=1) as pool:
            outcomes = pool.run(
                [
                    Task(key="ok", fn=square, args=(3,)),
                    Task(key="bad", fn=raise_value_error, args=(1,)),
                ]
            )
        assert outcomes["ok"].value == 9
        assert outcomes["bad"].status == "error"
        assert "boom 1" in outcomes["bad"].error

    def test_duplicate_keys_rejected(self):
        with ScenarioPool(jobs=1) as pool:
            with pytest.raises(ValueError, match="duplicate task keys"):
                pool.run([Task(key="a", fn=square, args=(1,))] * 2)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ScenarioPool(jobs=0)


@needs_fork
class TestPooled:
    def test_matches_inline_results(self):
        tasks = lambda: [  # noqa: E731 - fresh Task objects per run
            Task(key=f"t{i}", fn=square_loud, args=(i,), cost=float(i))
            for i in range(8)
        ]
        with ScenarioPool(jobs=1) as pool:
            inline = pool.run(tasks())
        with ScenarioPool(jobs=3, start_method="fork") as pool:
            pooled = pool.run(tasks())
        assert _values(inline) == _values(pooled)
        assert {k: o.stdout for k, o in inline.items()} == {
            k: o.stdout for k, o in pooled.items()
        }

    def test_worker_crash_contained(self):
        """A task that kills its worker fails alone; the batch and the
        pool survive."""
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcomes = pool.run(
                [
                    Task(key="a", fn=square, args=(2,)),
                    Task(key="poison", fn=die_hard, args=(0,)),
                    Task(key="b", fn=square, args=(3,)),
                    Task(key="c", fn=square, args=(4,)),
                ]
            )
            assert outcomes["poison"].status == "crashed"
            assert "exit code 7" in outcomes["poison"].error
            assert _values({k: outcomes[k] for k in ("a", "b", "c")}) == {
                "a": 4,
                "b": 9,
                "c": 16,
            }
            # The pool is still usable after the crash.
            again = pool.run([Task(key="after", fn=square, args=(5,))])
            assert again["after"].value == 25
        assert pool.stats.crashes == 1

    def test_timeout_contained(self):
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcomes = pool.run(
                [
                    Task(key="stuck", fn=sleep_forever, args=(0,), timeout=0.3),
                    Task(key="fine", fn=square, args=(6,)),
                ]
            )
        assert outcomes["stuck"].status == "timeout"
        assert "0.3" in outcomes["stuck"].error
        assert outcomes["fine"].value == 36
        assert pool.stats.timeouts == 1

    def test_unpicklable_result_is_error_not_hang(self):
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcomes = pool.run(
                [
                    Task(key="bad", fn=unpicklable, args=(0,)),
                    Task(key="good", fn=square, args=(2,)),
                ]
            )
        assert outcomes["bad"].status == "error"
        assert "picklable" in outcomes["bad"].error
        assert outcomes["good"].value == 4

    def test_workers_persist_across_batches(self):
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            pool.run([Task(key=f"t{i}", fn=square, args=(i,)) for i in range(4)])
            first_workers = {w.process.pid for w in pool._workers}
            pool.run([Task(key=f"u{i}", fn=square, args=(i,)) for i in range(4)])
            second_workers = {w.process.pid for w in pool._workers}
        assert first_workers == second_workers

    def test_run_one(self):
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcome = pool.run_one(Task(key="solo", fn=square, args=(9,)))
        assert isinstance(outcome, TaskOutcome)
        assert outcome.ok and outcome.value == 81

    def test_closed_pool_rejects_runs(self):
        pool = ScenarioPool(jobs=2, start_method="fork")
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([Task(key="a", fn=square, args=(1,))])

    def test_large_batch_completes_with_per_task_stdout(self):
        n = 80
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcomes = pool.run(
                [Task(key=f"t{i}", fn=square_loud, args=(i,)) for i in range(n)]
            )
        assert _values(outcomes) == {f"t{i}": i * i for i in range(n)}
        assert outcomes["t7"].stdout == "squaring 7\n"
        assert all(o.ok for o in outcomes.values())

    def test_error_mid_batch_contained_to_its_task(self):
        tasks = [Task(key=f"t{i}", fn=square, args=(i,)) for i in range(40)]
        tasks[17] = Task(key="t17", fn=raise_value_error, args=(17,))
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcomes = pool.run(tasks)
        assert outcomes["t17"].status == "error"
        assert "boom 17" in outcomes["t17"].error
        ok = [k for k, o in outcomes.items() if o.ok]
        assert len(ok) == 39

    def test_crash_mid_batch_leaves_every_other_task_ok(self):
        tasks = [Task(key=f"t{i}", fn=square, args=(i,)) for i in range(40)]
        tasks[3] = Task(key="t3", fn=die_hard, args=(3,))
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcomes = pool.run(tasks)
        assert outcomes["t3"].status == "crashed"
        assert len(outcomes) == 40
        assert all(o.ok for k, o in outcomes.items() if k != "t3")
        assert pool.stats.respawns >= 1

    def test_timeout_fires_while_others_complete(self):
        tasks = [Task(key=f"t{i}", fn=square, args=(i,)) for i in range(12)]
        tasks.append(Task(key="hang", fn=sleep_forever, args=(0,), timeout=0.5, cost=99.0))
        with ScenarioPool(jobs=2, start_method="fork") as pool:
            outcomes = pool.run(tasks)
        assert outcomes["hang"].status == "timeout"
        assert all(o.ok for k, o in outcomes.items() if k != "hang")
