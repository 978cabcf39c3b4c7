"""Smoke test of the perf ledger: every workload at ``--scale 0.05``.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with

    python -m pytest bench/test_bench_smoke.py -q

It checks the shape of the results, never their values: schema
complete, names well-formed, simulated results and counts repeatable
for a seed and different between seeds, tracing not perturbing the
run, and the bypass workload bypassing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import is_host_row  # noqa: E402

SCHEMA = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SCHEMA["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def invoke(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "0.05",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    """(workload, seed, trace, nth) -> result, all invocations at once."""
    jobs = [
        (workload, seed, trace, nth)
        for workload in WORKLOADS
        for seed, trace, nth in ((1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0))
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outs = pool.map(lambda job: invoke(*job[:3]), jobs)
    return dict(zip(jobs, outs))


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_schema_is_well_formed():
    names = [m["name"] for m in SCHEMA["end_to_end"] + SCHEMA["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SCHEMA["end_to_end"] + SCHEMA["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SCHEMA["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SCHEMA["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_results_match_schema(results, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = results[(workload, 1, trace, 0)]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SCHEMA[section]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(v > 0 for v in values(results[(workload, 1, 0, 0)]).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_differ_between_seeds(results, workload):
    first, again, other = (
        {n: v for n, v in values(results[(workload, seed, 1, nth)]).items() if not is_host_row(n)}
        for seed, nth in ((1, 0), (1, 1), (2, 0))
    )
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_agree(results, workload):
    # run.py itself fails the run when tracing changes the event count
    # or any counter; here: the traced run saw the events at all.
    traced = values(results[(workload, 1, 1, 0)])
    assert traced["scheduler.events"] > 0
    assert traced["trace.spans"] > traced["scheduler.events"]
    assert traced["trace.boundaries_missing"] == 0
    assert traced["trace.unattributed_s"] < 0.05 * traced["trace.wall_s"]


def test_bypass_workload_bypasses(results):
    clean = values(results[("bulk_clean", 1, 1, 0)])
    for layer in ("ft_tcp", "replication", "ack_channel", "redirector"):
        assert clean[f"{layer}.calls"] == 0
    chain = values(results[("bulk_chain", 1, 1, 0)])
    star = values(results[("small_star", 1, 1, 0)])
    assert chain["replication.chain_calls"] > 0 == chain["replication.broadcast_calls"]
    assert star["replication.broadcast_calls"] > 0 == star["replication.chain_calls"]
    for workload in WORKLOADS:
        faults = values(results[(workload, 1, 1, 0)])["faults.calls"]
        assert (faults > 0) == (workload == "fault_churn")
