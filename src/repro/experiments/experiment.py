"""The record every experiment module exports as ``EXPERIMENT``.

An experiment is data: the independent simulations it runs and how to
print their results.  :mod:`repro.experiments.runner` lists the records
and does everything else once — flag parsing, fan-out over the process
pool, the shape-check verdict, the JSON report and certification — so
a serial run and a ``--jobs N`` run execute the very same point tasks
and print the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.runtime import Task


@dataclass(frozen=True)
class Certify:
    """An acceptance scenario behind ``--certify``.

    ``points()`` lists its tasks; each runs inline and in a pool worker
    and the two values must be equal.  ``check(values)`` then prints a
    summary and returns the acceptance problems (empty means pass)."""

    points: Callable[[], list[Task]]
    check: Callable[[dict[str, Any]], list[str]]


@dataclass(frozen=True)
class Experiment:
    """``points(fast)`` lists one task per independent simulation (keys
    unique within the experiment, ``cost`` in estimated serial seconds);
    ``report(fast, values)`` receives ``{key: value}`` for those tasks in
    ``points`` order, prints the tables and returns the shape-check
    problems; ``ok`` is the reason printed as "Shape check: OK (<ok>)"."""

    title: str
    points: Callable[[bool], list[Task]]
    report: Callable[[bool, dict[str, Any]], list[str]]
    ok: str
    certify: Optional[Certify] = None
