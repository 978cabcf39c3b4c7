"""The experiment runner and package entry points."""

import io
from contextlib import redirect_stderr, redirect_stdout



def test_runner_lists_all_experiments():
    from repro.experiments.runner import EXPERIMENTS

    titles = [t for t, _ in EXPERIMENTS]
    assert any("Figure 4" in t for t in titles)
    for tag in ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "D2", "D3", "D4"):
        assert any(tag in t for t in titles), tag
    # Every listed module is runnable and has the standard interface.
    for _, module in EXPERIMENTS:
        assert callable(module.main)


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
    test runs, end to end through its main() (a failed check raises)."""
    from importlib import import_module

    for tag, name in (
        ("A2", "failover"),
        ("A3", "ack_channel_loss"),
        ("A5", "receive_path"),
        ("A6", "ordered_channel"),
        ("A7", "detector_comparison"),
        ("D3", "recovery"),
    ):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            status = import_module(f"repro.experiments.{name}").main(["--fast"])
        text = buffer.getvalue()
        assert status == 0, name
        assert tag in text and "Shape check: OK" in text
