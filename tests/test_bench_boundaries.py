"""The perf ledger's boundary table still resolves against ``src/``.

``bench/layers.py`` names, by module, class and method, the calls the
traced ledger run wraps; a name that no longer resolves is counted as
``trace.boundaries_missing`` instead of failing.  This test installs
the ledger's tracer (no simulation runs), reads what it could not find
and uninstalls it, so a rename or deletion in ``src/`` fails here and
not only in the ledger job.

Two names are known stale: ``FtConnectionState.deposit_ceiling`` and
``.transmit_ceiling`` were deleted from ``src/`` when the ft gates
became fields, and dropping them from ``bench/layers.py`` is ROADMAP
item 1(a).  When that lands, this set becomes empty.
"""

import sys
from pathlib import Path

KNOWN_STALE = [
    "repro.core.ft_tcp:FtConnectionState.deposit_ceiling",
    "repro.core.ft_tcp:FtConnectionState.transmit_ceiling",
]


def test_every_other_ledger_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        for name in ("tracer", "layers"):
            sys.modules.pop(name, None)
    assert sorted(tracer.missing) == KNOWN_STALE
