"""What an import loads (DESIGN.md §17).

A package ``__init__`` imports nothing that some importer does not run:
``import repro`` loads no other module, and the plain-TCP testbed (the
paper's ``clean`` baseline, the ledger's ``bulk_clean``) loads no
HydraNet code.  Callers import a name from the module that defines it.

This process has loaded most of ``repro`` long before these tests run,
so each case asks a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages the clean path must not load at all.
OFF_THE_CLEAN_PATH = (
    "core", "hydranet", "replication", "invariants", "topo", "faults", "recovery", "runtime",
)


def _run(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, sys.argv[1]); {code}", SRC, *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


def loaded_by(module: str) -> list[str]:
    """The ``repro`` modules a fresh ``import module`` loads."""
    return json.loads(_run(
        f"import json, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    ))


def test_import_repro_loads_no_other_module():
    assert loaded_by("repro") == ["repro"]


def test_the_clean_testbed_loads_no_hydranet_code():
    loaded = loaded_by("repro.experiments.testbeds")
    packages = {m.split(".")[1] for m in loaded if m != "repro"}
    assert packages.isdisjoint(OFF_THE_CLEAN_PATH), sorted(packages)
    assert [m for m in loaded if m.startswith("repro.apps.")] == ["repro.apps.ttcp"]
    assert [m for m in loaded if m.startswith("repro.metrics.")] == ["repro.metrics.stats"]


def test_every_package_imports_first():
    """With no ``__init__`` to fix the order, any package can be the
    first one a program imports: the graph between them has no cycle."""
    packages = sorted(f"repro.{p.parent.name}" for p in SRC.glob("repro/*/__init__.py"))
    failed = _run(
        "import importlib\n"
        "for package in sys.argv[2:]:\n"
        "    for name in [m for m in sys.modules if m.startswith('repro')]:\n"
        "        del sys.modules[name]\n"
        "    try:\n"
        "        importlib.import_module(package)\n"
        "    except ImportError as exc:\n"
        "        print(f'{package}: {exc}')\n",
        *packages,
    )
    assert len(packages) >= 16 and failed == ""
