"""Gray-failure integration scenarios (DESIGN.md §14).

End-to-end over the D6 testbed: a replica that is alive at the ICMP
level but wedged, lying, or half-deaf at the protocol level must be
excised through the graceful-degradation path while the client stream
keeps flowing — and with that path compiled out, the same adversary
must stall primary output forever, which the OutputLiveness monitor
(not a test-specific probe) is what notices.

Selected in CI by the chaos job's ``gray`` matrix selector.
"""

import pytest

from repro.experiments.gray_failures import (
    LIVENESS_BOUND,
    TARGET_DEGREE,
    Variant,
    check_shape,
    run_variant,
)
from repro.invariants.fuzz import mutated

pytestmark = [pytest.mark.gray, pytest.mark.slow]


def test_lying_successor_is_excised_and_stream_survives():
    """A compromised backup inflating its watermarks is flagged by the
    plausibility check, reported, and excised via recovery's splice;
    the replication degree is restored from the spare pool and the
    client never notices."""
    result = run_variant(Variant("lie", lie=True))
    assert check_shape(result) == []
    assert result.excised and result.failover_time is not None
    assert result.implausible_reports >= 1 and result.lie_reports >= 1
    assert result.final_degree == TARGET_DEGREE
    assert result.stream_intact
    assert result.max_stall <= LIVENESS_BOUND


def test_slow_but_progressing_replica_is_not_excised():
    """The zero-progress criterion's load-shedding guard: a 10x-slow
    replica still advances its watermarks every tick, so it degrades
    goodput but is never mistaken for a wedged one."""
    result = run_variant(Variant("slow10", slow=10.0))
    assert check_shape(result) == []
    assert not result.excised
    assert result.degradation_reports == 0
    assert result.stream_intact and not result.violated_monitors


def test_excision_disabled_wedged_successor_stalls_output():
    """The contrast run: with both gray excision pathways (degradation
    reports and lie evidence) compiled out, the lying successor's
    (rejected) reports freeze the primary's gates forever — and the
    ack-channel keepalive keeps it observably *talking*, so neither
    silence-based detection nor the probe can pin it.  The
    OutputLiveness monitor is what fires."""
    with mutated("excision"):
        result = run_variant(Variant("lie", lie=True))
    assert "output-liveness" in result.violated_monitors
    assert not result.excised
    assert result.max_stall > LIVENESS_BOUND
    assert result.bytes_received < result.bytes_sent
