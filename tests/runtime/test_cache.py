"""Result cache: hits replay byte-identical output, source changes miss."""

from repro.runtime import (
    ResultCache,
    ScenarioPool,
    Task,
    source_fingerprint,
    task_fingerprint,
)

from .helpers import square_loud


def _task(x=3, key="t"):
    task = Task(key=key, fn=square_loud, args=(x,))
    task.fingerprint = task_fingerprint(task)
    return task


class TestResultCache:
    def test_miss_then_hit_replays_value_and_stdout(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_fp="f" * 64)
        with ScenarioPool(jobs=1, cache=cache) as pool:
            first = pool.run([_task()])["t"]
        assert not first.cached
        with ScenarioPool(jobs=1, cache=cache) as pool:
            second = pool.run([_task()])["t"]
        assert second.cached
        assert second.value == first.value == 9
        assert second.stdout == first.stdout == "squaring 3\n"

    def test_source_change_invalidates(self, tmp_path):
        before = ResultCache(root=tmp_path, source_fp="a" * 64)
        with ScenarioPool(jobs=1, cache=before) as pool:
            pool.run([_task()])
        after = ResultCache(root=tmp_path, source_fp="b" * 64)
        assert after.get(_task()) is None
        assert after.misses == 1
        # Same source fingerprint still hits.
        assert ResultCache(root=tmp_path, source_fp="a" * 64).get(_task()) is not None

    def test_different_arguments_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_fp="a" * 64)
        with ScenarioPool(jobs=1, cache=cache) as pool:
            pool.run([_task(x=3)])
        assert cache.get(_task(x=4)) is None
        assert cache.get(_task(x=3)) is not None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_fp="a" * 64)
        task = _task()
        with ScenarioPool(jobs=1, cache=cache) as pool:
            pool.run([task])
        path = cache._path(task.fingerprint)
        path.write_bytes(b"not a pickle")
        assert cache.get(task) is None

    def test_unwritable_cache_is_a_miss(self, tmp_path):
        root = tmp_path / "not-a-directory"
        root.write_text("")
        cache = ResultCache(root=root, source_fp="a" * 64)
        with ScenarioPool(jobs=1, cache=cache) as pool:
            outcome = pool.run([_task()])["t"]
        assert outcome.ok and outcome.value == 9
        assert cache.get(_task()) is None
        assert root.read_text() == ""

    def test_tasks_without_fingerprint_never_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path, source_fp="a" * 64)
        bare = Task(key="t", fn=square_loud, args=(3,))
        with ScenarioPool(jobs=1, cache=cache) as pool:
            pool.run([bare])
        assert cache.get(bare) is None
        assert not any(tmp_path.rglob("*.pkl"))

    def test_source_fingerprint_tracks_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEED_OFFSET", raising=False)
        base = source_fingerprint()
        assert base == source_fingerprint()  # memoized + stable
        monkeypatch.setenv("REPRO_SEED_OFFSET", "1000")
        assert source_fingerprint() != base

    def test_task_fingerprint_tracks_fn_args_and_salt(self):
        a, b = _task(x=3), _task(x=4)
        assert a.fingerprint != b.fingerprint
        assert task_fingerprint(a) != task_fingerprint(a, salt="mutated")
        # Key does not participate: same work, same fingerprint.
        assert task_fingerprint(_task(key="k1")) == task_fingerprint(_task(key="k2"))
