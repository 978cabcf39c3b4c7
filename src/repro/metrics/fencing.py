"""Fencing metrics (split-brain prevention, DESIGN.md §9).

The redirector daemon counts the Demotes it sent and tracks
*dual-primary near misses* — moments where a replica outside the
current view still tried to act as primary (a stale-stamped segment
reached the fence, a zombie bid for promotion, or a zombie signalled the
management plane) and was stopped.  In an unfenced system every near
miss is a potential client-stream corruption.  The fenced segments
themselves are counted by the redirector (``Redirector.segments_fenced``)
and each view's owner by the daemon (``RedirectorDaemon.epoch_owners``).
"""

from __future__ import annotations


class FencingMetrics:
    """Counters kept by one redirector daemon."""

    def __init__(self):
        self.demotes_sent = 0
        #: Distinct (service, stale epoch) pairs whose owner was caught
        #: still transmitting, plus refused bids and zombie signals.
        self.near_misses = 0
        self._fenced_epochs: set = set()

    def record_fenced(self, key, stale_epoch: int) -> None:
        """One client-bound segment carrying a stale epoch was dropped."""
        if (key, stale_epoch) not in self._fenced_epochs:
            # First stale segment from this epoch: an ex-primary is
            # provably still in primary mode — a dual-primary near miss
            # absorbed by the fence.
            self._fenced_epochs.add((key, stale_epoch))
            self.near_misses += 1

    def record_near_miss(self) -> None:
        self.near_misses += 1


def primary_overlap(samples: list[tuple[float, int]]) -> float:
    """Total time during which more than one replica reported primary
    mode *for the same epoch*, from ``(time, primaries_in_epoch)``
    samples taken by an experiment.  Piecewise-constant between samples;
    the fencing invariant is that this is always ``0.0``.  A trailing
    violation is unbounded and charged nothing: the caller sees the
    nonzero final sample directly."""
    overlap = 0.0
    for (t0, count), (t1, _next) in zip(samples, samples[1:]):
        if count > 1:
            overlap += t1 - t0
    return overlap
