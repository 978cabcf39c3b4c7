"""The experiment runner and package entry points."""

import dataclasses
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest


def test_runner_lists_all_experiments():
    from repro.experiments.experiment import Experiment
    from repro.experiments.runner import EXPERIMENTS

    titles = [exp.title for exp in EXPERIMENTS]
    assert any("Figure 4" in t for t in titles)
    for tag in ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "D2", "D3", "D4"):
        assert any(tag in t for t in titles), tag
    # Every entry is a record with real points in both modes.
    for exp in EXPERIMENTS:
        assert isinstance(exp, Experiment), exp
        for fast in (True, False):
            keys = [task.key for task in exp.points(fast)]
            assert keys and len(set(keys)) == len(keys), (exp.title, fast)


def _run_main_module(*args):
    from repro import __main__

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = __main__.main(list(args))
    return status, out.getvalue(), err.getvalue()


def test_main_module_prints_overview():
    from repro.__main__ import COMMANDS

    status, text, _err = _run_main_module()
    assert status == 0
    assert "HydraNet-FT" in text or "HYDRANET-FT" in text
    listed = [line.split()[3] for line in text.partition("commands:\n")[2].splitlines()]
    assert listed == list(COMMANDS) and "experiments" in listed

    # A typo or a removed command must not look like success.
    for unknown in ("bogus", "experiment", "perf"):
        status, text, err = _run_main_module(unknown, "--fast")
        assert status == 2 and text == ""
        assert err.count("\n") == 1 and repr(unknown) in err
        assert all(command in err for command in COMMANDS)


def test_single_experiment_fast_mode_runs():
    """Each experiment whose sweep-level shape check no other tier-1
    test runs, end to end through the runner."""
    from repro.experiments import runner

    for tag in ("A2", "A3", "A5", "A6", "A7", "D3"):
        buffer = io.StringIO()
        with redirect_stdout(buffer), redirect_stderr(io.StringIO()):
            status = runner.main(["--fast", "--only", tag])
        text = buffer.getvalue()
        assert status == 0, tag
        assert tag in text and "Shape check: OK" in text


@pytest.fixture
def nothing_runs(monkeypatch):
    """Make any attempt to run a point fail the test."""
    from repro.experiments import runner

    def refuse(*args, **kwargs):
        raise AssertionError("a rejected command line started the pool")

    monkeypatch.setattr(runner, "ScenarioPool", refuse)


@pytest.mark.parametrize("command", ["experiments", "mesh"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "0"],
        ["--jobs", "-2"],
        ["--jobs", "two"],
        ["--task-timeout", "0"],
        ["--task-timeout", "-1.5"],
        ["--fats"],
        ["--fast", "--bogus", "1"],
    ],
    ids=" ".join,
)
def test_bad_flags_exit_2_with_usage(command, flags, nothing_runs, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main([command, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: python -m repro {command} ") and "Traceback" not in err
    assert err.count(f"python -m repro {command}: error: ") == 1


@pytest.mark.parametrize("command", ["experiments", "mesh"])
def test_help_runs_nothing(command, nothing_runs, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main([command, "--fats", "--help"])
    assert exc.value.code == 0
    assert "--certify" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--only", "A1"], ["--fast", "--only", "D5"]], ids=" ".join)
def test_mesh_refuses_only(flags, nothing_runs, capsys):
    """``mesh`` is D5 alone: a user ``--only`` must not swap in another
    experiment."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["mesh", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro mesh ")
    assert "unrecognized arguments: " in err


def test_failing_report_does_not_take_the_batch_down(monkeypatch, tmp_path):
    """A report that raises fails its own experiment; the experiments
    after it are still reported and the JSON report is still written."""
    from repro.experiments import runner

    by_tag = {exp.title[:2]: exp for exp in runner.EXPERIMENTS}

    def broken(fast, values):
        raise KeyError("report-bug")

    monkeypatch.setattr(
        runner,
        "EXPERIMENTS",
        [dataclasses.replace(by_tag["A4"], report=broken), by_tag["A5"]],
    )
    path = tmp_path / "report.json"
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = runner.main(["--fast", "--report", str(path)])
    text = out.getvalue()
    assert status == 1
    assert "TASK 00/report ERROR:" in text and "KeyError: 'report-bug'" in text
    assert "[A4 fragmentation: FAILED]" in text
    assert "[A5 receive-path ablation: OK]" in text
    assert text.endswith("FAILED experiments:\n  - A4 fragmentation\n")
    broken_row, ok_row = json.loads(path.read_text())["experiments"]
    assert broken_row["status"] == "failed"
    [error] = broken_row["errors"]
    assert error["task"] == "00/report" and "report-bug" in error["error"]
    assert ok_row["status"] == "ok" and ok_row["errors"] == []
