"""Python-frame budget of the per-packet path (DESIGN.md §17).

Counts the Python function calls (``sys.setprofile``, ``"call"`` events
only — C builtins do not count) a fixed transfer costs, per packet put
on a link.  The count is deterministic and the same on every box, so a
forwarding layer re-added to the tcp / ip / link / dispatch path fails
here at once instead of waiting for a noisy wall clock to show it.
Each budget sits about 5 % above what the path costs today.
"""

from __future__ import annotations

import sys

import pytest

from repro.experiments.testbeds import build_clean, build_primary_backup
from repro.netsim.link import Channel

SEGMENTS = 512

#: shape -> (builder, Python calls allowed per link packet).  Reached
#: when the budget was set: clean 24.99 (parent 45.28), chain 47.46
#: (parent 68.02).
BUDGETS = {
    "clean": (build_clean, 26.2),
    "chain": (lambda seed: build_primary_backup(seed, n_backups=2, strategy="chain"), 49.6),
}


def calls_per_packet(builder, monkeypatch) -> float:
    channels = []
    init = Channel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        channels.append(self)

    monkeypatch.setattr(Channel, "__init__", recording_init)
    testbed = builder(1)
    before = sum(channel.packets_sent for channel in channels)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = testbed.run(buflen=1024, nbuf=SEGMENTS)
    finally:
        sys.setprofile(previous)
    assert result.completed
    packets = sum(channel.packets_sent for channel in channels) - before
    return calls / packets


@pytest.mark.parametrize("shape", sorted(BUDGETS))
def test_calls_per_packet_within_budget(shape, monkeypatch):
    builder, budget = BUDGETS[shape]
    assert calls_per_packet(builder, monkeypatch) <= budget
