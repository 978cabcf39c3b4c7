"""On-disk result cache for seed-deterministic scenarios (DESIGN.md §12).

Cache key = ``(source fingerprint, scenario fingerprint)``:

* the **source fingerprint** hashes every ``*.py`` file under the
  ``repro`` package plus the environment knobs that change simulation
  behaviour (``REPRO_SEED_OFFSET``) — touch any source file and every
  cached result is invalidated at once;
* the **scenario fingerprint** hashes the task's callable identity and
  its plain-data arguments (:func:`task_fingerprint`), so two tasks
  with the same inputs share an entry no matter which front end
  submitted them.

Entries live under ``<root>/<source_fp[:16]>/<scenario_fp>.pkl`` and
store the task's value *and* its captured stdout, so a cache hit
replays byte-identical output.  Corrupt or unreadable entries are
treated as misses.  The cache directory defaults to ``.repro-cache``
under the current working directory (override with ``REPRO_CACHE_DIR``
or ``--cache-dir``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from .pool import Task, TaskOutcome

__all__ = [
    "ResultCache",
    "source_fingerprint",
    "task_fingerprint",
    "default_cache_dir",
]

_ENTRY_VERSION = 1

#: Environment variables that alter simulation behaviour and therefore
#: participate in the source fingerprint.
FINGERPRINT_ENV = ("REPRO_SEED_OFFSET",)

_source_fp_cache: dict[tuple, str] = {}


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def source_fingerprint() -> str:
    """Digest of the installed ``repro`` sources + behavioural env.

    Memoized per process: the tree is hashed once (~170 files) and any
    source edit between processes produces a different digest, which is
    exactly the "source change ⇒ cache miss" contract.
    """
    env_part = tuple((name, os.environ.get(name, "")) for name in FINGERPRINT_ENV)
    cached = _source_fp_cache.get(env_part)
    if cached is not None:
        return cached
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\x00")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    for name, value in env_part:
        h.update(f"{name}={value}".encode())
        h.update(b"\x00")
    digest = h.hexdigest()
    _source_fp_cache[env_part] = digest
    return digest


def task_fingerprint(task: Task, salt: str = "") -> str:
    """Scenario fingerprint for a :class:`Task`: callable identity +
    JSON of its arguments (which are plain data by the pool's
    contract).  ``salt`` lets a front end segregate otherwise-identical
    calls (e.g. a mutation name)."""
    payload = json.dumps(
        {
            "fn": f"{task.fn.__module__}.{task.fn.__qualname__}",
            "args": list(task.args),
            "kwargs": task.kwargs,
            "salt": salt,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Pickle-per-entry cache under ``root``, namespaced by the source
    fingerprint.  Passed to :class:`~repro.runtime.pool.ScenarioPool`,
    which consults it before dispatch and fills it on success."""

    def __init__(self, root: Optional[Path] = None, source_fp: Optional[str] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.source_fp = source_fp if source_fp is not None else source_fingerprint()
        self.hits = 0
        self.misses = 0

    def _path(self, scenario_fp: str) -> Path:
        return self.root / self.source_fp[:16] / f"{scenario_fp}.pkl"

    def get(self, task: Task) -> Optional[TaskOutcome]:
        """Cached outcome for ``task`` (marked ``cached=True``), or
        ``None`` on a miss.  Tasks without a fingerprint never hit."""
        if not task.fingerprint:
            return None
        try:
            with open(self._path(task.fingerprint), "rb") as f:
                entry = pickle.load(f)
            if entry.get("version") != _ENTRY_VERSION:
                raise ValueError(f"unknown cache entry version {entry.get('version')}")
            entry["value"], entry["stdout"], entry["wall_seconds"]
        except (OSError, pickle.UnpicklingError, EOFError, KeyError, ValueError,
                AttributeError, ImportError, IndexError):
            self.misses += 1
            return None
        self.hits += 1
        return TaskOutcome(
            key=task.key,
            status="ok",
            value=entry["value"],
            stdout=entry["stdout"],
            wall_seconds=entry["wall_seconds"],
            cached=True,
        )

    def put(self, task: Task, outcome: TaskOutcome) -> None:
        """Store a successful outcome (atomically: tmp file + rename,
        so a parallel writer can never leave a torn entry).  A cache
        that cannot be written stores nothing: the entry stays a miss."""
        if not task.fingerprint or not outcome.ok:
            return
        path = self._path(task.fingerprint)
        entry = {
            "version": _ENTRY_VERSION,
            "value": outcome.value,
            "stdout": outcome.stdout,
            "wall_seconds": outcome.wall_seconds,
        }
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as f:
                pickle.dump(entry, f)
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
