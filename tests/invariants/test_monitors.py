"""Unit and system tests for the invariant monitors."""

from types import SimpleNamespace

import pytest

from repro.invariants import (
    InvariantSet,
    InvariantViolationError,
    Violation,
    attach_invariants,
)
from repro.invariants.fuzz import ScenarioSpec, run_scenario


def _fake_state(name="hs_0", gated=True, client_port=40000):
    """A minimal stand-in for FtConnectionState, for direct-call units."""
    conn = SimpleNamespace(remote_ip="10.0.0.9", remote_port=client_port)
    port = SimpleNamespace(
        service_ip="192.20.225.20",
        port=7,
        host_server=SimpleNamespace(name=name),
    )
    return SimpleNamespace(conn=conn, port=port, gated=gated, monitor=None)


@pytest.fixture()
def invset():
    return InvariantSet(SimpleNamespace(now=1.25))


class TestReporting:
    def test_violation_str_has_monitor_time_and_detail(self):
        v = Violation("atomicity", 3.5, "boom", ("ip", 7, "c", 1))
        assert "[atomicity]" in str(v) and "t=3.5" in str(v) and "boom" in str(v)

    def test_check_raises_with_summary(self, invset):
        invset.check()  # clean: no raise
        invset.report("atomicity", "deposited too early")
        with pytest.raises(InvariantViolationError, match="deposited too early"):
            invset.check()
        assert invset.violated_monitors() == ["atomicity"]
        assert invset.stats["violation:atomicity"] == 1

    def test_on_violation_callback_fires(self):
        seen = []
        invset = InvariantSet(SimpleNamespace(now=0.0), on_violation=seen.append)
        invset.report("single-primary", "two primaries")
        assert len(seen) == 1 and seen[0].monitor == "single-primary"


class TestClientKey:
    def test_formatted_once_per_connection_state_then_reused(self, invset, monkeypatch):
        """The monitors' connection key costs two ``IPAddress.__str__``
        calls the first time a hook needs it and none afterwards, the
        replica's address one call at its first deposit; what a
        violation prints is what it always printed."""
        from repro.invariants.monitors import _client_key
        from repro.netsim.addressing import IPAddress

        state = _fake_state()
        state.conn.remote_ip = IPAddress("10.0.0.9")
        state.port.service_ip = IPAddress("192.20.225.20")
        formatted = []
        to_str = IPAddress.__str__
        monkeypatch.setattr(
            IPAddress, "__str__", lambda self: formatted.append(self) or to_str(self)
        )
        key = _client_key(state)
        assert key == ("192.20.225.20", 7, "10.0.0.9", 40000)
        assert len(formatted) == 2
        invset.successor_view(state).deposited_upto = 4
        state.port.host_server.ip = IPAddress("10.0.0.3")
        for _ in range(3):
            invset.atomicity.on_deposit(state, 0, b"abcde")
            invset.stream_integrity.on_deposit(state, 0, b"abcde")
            invset.progress_truthfulness.on_deposit(state, 0, b"abcde")
            # The replica's address is formatted by its first deposit, once.
            assert len(formatted) == 3
        assert _client_key(state) is key
        assert invset.progress_truthfulness.deposited_end == {(key, "10.0.0.3"): 5}
        assert str(invset.violations[0]) == (
            "[atomicity] t=1.250000 conn=('192.20.225.20', 7, '10.0.0.9', 40000): "
            "deposited stream bytes [0, 5) but the successor only reported 4 deposited"
        )


class TestAtomicityUnit:
    def test_deposit_within_successor_report_is_clean(self, invset):
        state = _fake_state()
        invset.successor_view(state).deposited_upto = 4
        invset.atomicity.on_deposit(state, 0, b"abcd")
        assert invset.violations == []

    def test_deposit_beyond_successor_report_violates(self, invset):
        state = _fake_state()
        invset.successor_view(state).deposited_upto = 4
        invset.atomicity.on_deposit(state, 0, b"abcde")
        assert invset.violated_monitors() == ["atomicity"]

    def test_ungated_connection_is_exempt(self, invset):
        state = _fake_state(gated=False)
        invset.atomicity.on_deposit(state, 0, b"x" * 1000)
        assert invset.violations == []


class TestStreamIntegrityUnit:
    def test_matching_replica_streams_are_clean(self, invset):
        a, b = _fake_state("hs_0"), _fake_state("hs_1")
        invset.stream_integrity.on_deposit(a, 0, b"hello world")
        invset.stream_integrity.on_deposit(b, 0, b"hello")
        invset.stream_integrity.on_deposit(b, 5, b" world")
        assert invset.violations == []
        (digest,) = invset.stream_integrity.digest().values()
        assert digest[0] == 11

    def test_diverging_replica_stream_violates(self, invset):
        a, b = _fake_state("hs_0"), _fake_state("hs_1")
        invset.stream_integrity.on_deposit(a, 0, b"hello world")
        invset.stream_integrity.on_deposit(b, 0, b"hellO")
        assert invset.violated_monitors() == ["stream-integrity"]

    def test_gap_past_canonical_end_violates(self, invset):
        a = _fake_state("hs_0")
        invset.stream_integrity.on_deposit(a, 0, b"abc")
        invset.stream_integrity.on_deposit(a, 10, b"xyz")
        assert invset.violated_monitors() == ["stream-integrity"]


class TestProgressTruthfulnessUnit:
    """DESIGN.md §14: claims are cross-checked against the claiming
    replica's *actual* deposits, independent of the ft-TCP gates."""

    def _state(self, name="hs_0", irs=0):
        state = _fake_state(name)
        state.conn.irs = irs
        return state

    def test_truthful_claim_is_clean(self, invset):
        primary = self._state()
        backup = self._state("hs_1")
        backup.port.host_server.ip = "10.0.0.3"
        invset.progress_truthfulness.on_deposit(backup, 0, b"x" * 4096)
        # irs=0: ack = 1 + deposited bytes claimed.
        invset.progress_truthfulness.on_claim(
            primary, seq_next=1, ack=1 + 4096, claimant="10.0.0.3"
        )
        assert invset.violations == []

    def test_inflated_claim_violates(self, invset):
        primary = self._state()
        backup = self._state("hs_1")
        backup.port.host_server.ip = "10.0.0.3"
        invset.progress_truthfulness.on_deposit(backup, 0, b"x" * 4096)
        slack = invset.progress_truthfulness.SLACK
        invset.progress_truthfulness.on_claim(
            primary, seq_next=1, ack=1 + 4096 + slack + 1, claimant="10.0.0.3"
        )
        assert invset.violated_monitors() == ["progress-truthfulness"]

    def test_claim_within_slack_is_clean(self, invset):
        primary = self._state()
        backup = self._state("hs_1")
        backup.port.host_server.ip = "10.0.0.3"
        invset.progress_truthfulness.on_deposit(backup, 0, b"x" * 100)
        slack = invset.progress_truthfulness.SLACK
        invset.progress_truthfulness.on_claim(
            primary, seq_next=1, ack=1 + 100 + slack, claimant="10.0.0.3"
        )
        assert invset.violations == []

    def test_no_claim_sentinel_ignored(self, invset):
        primary = self._state()
        invset.progress_truthfulness.on_claim(
            primary, seq_next=1, ack=0, claimant="10.0.0.3"
        )
        assert invset.violations == []


def _liveness_port(blocked=True, silence=0.1, marks=(10, 10)):
    """A fake FtPort with one connection for OutputLiveness units."""
    from repro.tcp.tcb import TcpState

    state = _fake_state()
    state.conn.state = TcpState.ESTABLISHED
    state.blocked_on_successor = lambda: blocked
    state.successor_silence = lambda: silence
    state.members = SimpleNamespace(
        sent=marks[0], deposited=marks[1], straggler="10.0.0.3"
    )
    port = SimpleNamespace(
        states={("10.0.0.9", 40000): state},
        host_server=SimpleNamespace(name="hs_0"),
    )
    return port, state


class TestOutputLivenessUnit:
    def test_disabled_without_bound(self, invset):
        port, _ = _liveness_port()
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 100.0
        invset.output_liveness.on_liveness_tick(port)
        assert invset.violations == []

    def test_stall_on_live_successor_past_bound_violates(self, invset):
        invset.output_liveness.bound = 2.0
        port, _ = _liveness_port()
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 2.5
        invset.output_liveness.on_liveness_tick(port)
        assert invset.violated_monitors() == ["output-liveness"]

    def test_silent_successor_is_exempt(self, invset):
        """A crashed/partitioned successor is the fail-stop path's job,
        not a liveness violation."""
        invset.output_liveness.bound = 2.0
        port, state = _liveness_port(silence=10.0)
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 2.5
        invset.output_liveness.on_liveness_tick(port)
        assert invset.violations == []

    def test_watermark_progress_resets_the_clock(self, invset):
        """A saturated-but-moving successor is congestion, not failure:
        any watermark advance restarts the stall episode."""
        invset.output_liveness.bound = 2.0
        port, state = _liveness_port()
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 1.5
        state.members.deposited += 1  # progress!
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 1.5
        invset.output_liveness.on_liveness_tick(port)  # 1.5s since reset
        assert invset.violations == []
        invset.sim.now += 1.0  # now 2.5s since reset, no progress
        invset.output_liveness.on_liveness_tick(port)
        assert invset.violated_monitors() == ["output-liveness"]

    def test_new_state_reusing_an_id_inherits_no_stall_clock(self, invset, monkeypatch):
        """A state dropped from the table (``FtPort.shutdown``,
        ``_prune_states``) takes its episode with it: a newcomer that
        gets the same ``id`` was blocked only since its own first tick."""
        from repro.invariants import monitors

        monkeypatch.setattr(monitors, "id", lambda obj: 0, raising=False)
        invset.output_liveness.bound = 2.0
        port, _ = _liveness_port()
        invset.output_liveness.on_liveness_tick(port)
        _, newcomer = _liveness_port()
        port.states = {("10.0.0.9", 40001): newcomer}  # the old state is gone
        invset.sim.now += 2.5
        invset.output_liveness.on_liveness_tick(port)
        assert invset.violations == []  # blocked for 0 s, not 2.5 s
        invset.sim.now += 2.5
        invset.output_liveness.on_liveness_tick(port)
        assert invset.violated_monitors() == ["output-liveness"]

    def test_new_state_reusing_an_id_inherits_no_reported_flag(self, invset, monkeypatch):
        """An episode already reported on a dropped state cannot
        silence the real stall of a newcomer with the same ``id``."""
        from repro.invariants import monitors

        monkeypatch.setattr(monitors, "id", lambda obj: 0, raising=False)
        invset.output_liveness.bound = 2.0
        port, _ = _liveness_port()
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 2.5
        invset.output_liveness.on_liveness_tick(port)
        assert len(invset.violations) == 1
        _, newcomer = _liveness_port()
        port.states = {("10.0.0.9", 40001): newcomer}
        invset.sim.now += 1.0
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 2.5
        invset.output_liveness.on_liveness_tick(port)
        assert len(invset.violations) == 2

    def test_unblocking_clears_the_episode(self, invset):
        invset.output_liveness.bound = 2.0
        port, state = _liveness_port()
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 1.5
        state.blocked_on_successor = lambda: False
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 1.5
        state.blocked_on_successor = lambda: True
        invset.output_liveness.on_liveness_tick(port)
        invset.sim.now += 1.5
        invset.output_liveness.on_liveness_tick(port)  # only 1.5s blocked
        assert invset.violations == []


class TestAttachedSystem:
    def test_clean_failover_run_has_no_violations_and_full_coverage(self):
        spec = ScenarioSpec(
            seed=7,
            n_backups=1,
            workload={"kind": "echo", "total_bytes": 24_576, "chunk": 2048},
            duration=20.0,
            # Mid-transfer (traffic starts at t=2.0): forces a promotion.
            faults=[{"op": "crash", "target": "hs_0", "at": 2.1}],
        )
        result = run_scenario(spec)
        assert result.violations == []
        # The monitors actually saw the protocol, not an idle system.
        assert result.stats["deposits"] > 0
        assert result.stats["successor_reports"] > 0
        assert result.stats["promotions"] >= 1
        assert result.client_received == 24_576

    def test_attach_is_idempotent(self, monkeypatch):
        """Armed twice, one stale segment past a disabled fence is one
        single-primary violation."""
        from repro.hydranet import Redirector
        from repro.invariants.fuzz import build_fuzz_system
        from repro.netsim import IPPacket, Protocol, TCPSegment, as_address
        from repro.netsim.packet import FLAG_ACK

        monkeypatch.setattr(Redirector, "_fence_hook", lambda self, packet, nic: False)
        with build_fuzz_system(ScenarioSpec(seed=1)) as system:
            first = attach_invariants(system)
            second = attach_invariants(system)
            assert first is second
            redirector, port = system.redirector, system.port
            redirector.entry_for(system.service_ip, port).epoch += 1
            stale = TCPSegment(port, 40000, 0, 0, FLAG_ACK, 0, epoch=0)
            packet = IPPacket(
                src=as_address(system.service_ip),
                dst=system.client.ip,
                protocol=Protocol.TCP,
                payload=stale,
            )
            redirector.kernel.receive_from_nic(packet, redirector.interfaces[0])
            system.sim.run(until=system.sim.now + 0.01)
            assert [v.monitor for v in first.violations] == ["single-primary"]

    def test_detached_by_default(self):
        from repro.invariants.fuzz import build_fuzz_system

        system = build_fuzz_system(ScenarioSpec(seed=1))
        assert system.sim.invariants is None
