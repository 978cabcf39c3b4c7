"""Per-seed fingerprint pin over a fixed slice of the fuzzer's seed space.

Each sweep generates the fuzzer's scenario for every seed in its range
and compares the first 16 hex digits of the run's fingerprint (client
bytes, canonical replica streams, violated monitors) with the value
committed in ``sweep_pin.json``:

* chain, broadcast and checkpoint backends, seeds 0-39;
* gray-failure schedules (chain backend), seeds 0-19.

A refactor that is meant to keep behaviour fails here at the first
``(backend, seed)`` whose outcome moved.  The fuzzer ignores
``REPRO_SEED_OFFSET``, so the pin holds in every environment.  A
deliberate behaviour change re-records the table in its own commit
(``PYTHONPATH=src python tests/invariants/test_sweep_pin.py``) and says
why in CHANGES.md.

The table lives beside this file, not under ``tests/fuzz_corpus/``:
every JSON file there is replayed as a reproducer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.invariants.fuzz import generate_spec, run_scenario

PIN = Path(__file__).with_name("sweep_pin.json")

#: sweep name -> (generate_spec keyword arguments, number of seeds)
SWEEPS = {
    "chain": ({"backend": "chain"}, 40),
    "broadcast": ({"backend": "broadcast"}, 40),
    "checkpoint": ({"backend": "checkpoint"}, 40),
    "gray": ({"gray": True}, 20),
}


def sweep(name: str) -> dict[str, str]:
    kwargs, seeds = SWEEPS[name]
    return {
        str(seed): run_scenario(generate_spec(seed, **kwargs)).fingerprint[:16]
        for seed in range(seeds)
    }


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_fingerprints_match_pin(name):
    pinned = json.loads(PIN.read_text())[name]
    got = sweep(name)
    assert got.keys() == pinned.keys(), f"{name}: seed range differs from the pin"
    for seed, fingerprint in pinned.items():
        assert got[seed] == fingerprint, (
            f"first drift at ({name}, seed {seed}): "
            f"pinned {fingerprint}, got {got[seed]}"
        )


if __name__ == "__main__":
    PIN.write_text(json.dumps({name: sweep(name) for name in SWEEPS}, indent=1) + "\n")
    print(f"re-recorded {PIN}")
