"""Tests for deterministic fault injection."""

from types import SimpleNamespace

import pytest

from repro.faults import FaultPlan, GrayFaultPlan
from repro.netsim import IPPacket, Protocol, RawData, Simulator, Topology, ZERO_COST


@pytest.fixture()
def net():
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_host("a", ZERO_COST)
    b = topo.add_host("b", ZERO_COST)
    link = topo.connect(a, b, bandwidth_bps=1e7, latency=0.001)
    topo.build_routes()
    received = []
    b.kernel.register_protocol(Protocol.ICMP, lambda p: received.append(sim.now))
    return sim, topo, a, b, link, received


def ping(a, b, size=100):
    a.kernel.send_ip(
        IPPacket(
            src=a.ip, dst=b.ip, protocol=Protocol.ICMP, payload=RawData(b"x" * size)
        )
    )


def test_crash_at(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.crash_at(b, 1.0)
    sim.schedule(0.5, ping, a, b)
    sim.schedule(1.5, ping, a, b)
    sim.run()
    assert len(received) == 1
    assert plan.events_of("crash")[0].target == "b"


def test_crash_for_recovers(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.crash_for(b, 1.0, duration=2.0)
    sim.schedule(1.5, ping, a, b)   # during outage
    sim.schedule(3.5, ping, a, b)   # after recovery
    sim.run()
    assert len(received) == 1
    kinds = [e.kind for e in plan.log]
    assert kinds == ["crash", "recover"]


def test_partition_with_heal(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.partition_at(link, 1.0, duration=2.0)
    sim.schedule(1.5, ping, a, b)
    sim.schedule(3.5, ping, a, b)
    sim.run()
    assert len(received) == 1
    assert link.up


def test_partition_permanent(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.partition_at(link, 1.0)
    sim.schedule(2.0, ping, a, b)
    sim.run()
    assert received == []
    assert not link.up


def test_loss_burst_restores_rates(net):
    sim, topo, a, b, link, received = net
    link.a_to_b.loss_rate = 0.01
    plan = FaultPlan(sim)
    plan.loss_burst(link, 1.0, duration=1.0, loss_rate=1.0)
    sim.schedule(1.5, ping, a, b)
    sim.run()
    assert received == []
    assert link.a_to_b.loss_rate == 0.01
    assert link.b_to_a.loss_rate == 0.0


def test_congest_throttles_and_restores(net):
    sim, topo, a, b, link, received = net
    original = link.a_to_b.bandwidth_bps
    plan = FaultPlan(sim)
    plan.congest(link, 1.0, duration=2.0, bandwidth_factor=0.01)
    # A packet sent during congestion takes ~100x longer to serialize.
    sim.schedule(1.5, ping, a, b, 10000)
    sim.run()
    assert len(received) == 1
    transit = received[0] - 1.5
    assert transit > 10000 * 8 / original  # far slower than the healthy link
    assert link.a_to_b.bandwidth_bps == original


def test_event_log_ordering(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.crash_at(b, 2.0)
    plan.partition_at(link, 1.0, duration=0.5)
    sim.run()
    times = [e.time for e in plan.log]
    assert times == sorted(times)


def test_crash_cycle_schedules_repeated_outages(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.crash_cycle(b, start=1.0, period=4.0, downtime=1.0, count=3)
    sim.run(until=20.0)
    assert [e.time for e in plan.events_of("crash")] == [1.0, 5.0, 9.0]
    assert [e.time for e in plan.events_of("recover")] == [2.0, 6.0, 10.0]
    assert all(e.target == "b" for e in plan.log)
    assert not b.crashed


def test_partition_oneway_drops_only_one_direction(net):
    sim, topo, a, b, link, received = net
    received_a = []
    a.kernel.register_protocol(Protocol.ICMP, lambda p: received_a.append(sim.now))
    plan = FaultPlan(sim)
    plan.partition_oneway_at(link, "a_to_b", 1.0, duration=2.0)
    sim.schedule(1.5, ping, a, b)   # a->b is down: dropped
    sim.schedule(1.5, ping, b, a)   # b->a still up: delivered
    sim.schedule(3.5, ping, a, b)   # after the heal
    sim.run()
    assert len(received) == 1
    assert len(received_a) == 1
    assert link.a_to_b.up and link.b_to_a.up
    assert [e.kind for e in plan.log] == ["partition-oneway", "heal-oneway"]
    assert plan.log[0].target == "a<->b:a_to_b"


def test_partition_oneway_permanent_until_healed(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.partition_oneway_at(link, "b_to_a", 1.0)  # no duration: stays down
    received_a = []
    a.kernel.register_protocol(Protocol.ICMP, lambda p: received_a.append(sim.now))
    sim.schedule(2.0, ping, b, a)
    sim.schedule(2.0, ping, a, b)
    sim.run()
    assert received_a == []
    assert len(received) == 1
    assert link.a_to_b.up and not link.b_to_a.up


def test_partition_oneway_rejects_bad_direction(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    with pytest.raises(ValueError):
        plan.partition_oneway_at(link, "sideways", 1.0)


def test_crash_cycle_rejects_downtime_longer_than_period(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    with pytest.raises(ValueError):
        plan.crash_cycle(b, start=0.0, period=2.0, downtime=2.0, count=1)


def test_rejects_negative_times(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    with pytest.raises(ValueError):
        plan.crash_at(b, -1.0)
    with pytest.raises(ValueError):
        plan.recover_at(b, -0.5)
    with pytest.raises(ValueError):
        plan.crash_for(b, -2.0, duration=1.0)


def test_rejects_nan_times_and_lengths(net):
    """NaN compares false both ways, so a bare `at < 0` lets it through
    to the queue; every time and length check refuses it."""
    sim, topo, a, b, link, received = net
    plan = GrayFaultPlan(sim)
    nan = float("nan")
    for declare in (
        lambda: plan.crash_at(b, nan),
        lambda: plan.recover_at(b, nan),
        lambda: plan.crash_for(b, 1.0, duration=nan),
        lambda: plan.partition_at(link, nan, 1.0),
        lambda: plan.partition_at(link, 1.0, nan),
        lambda: plan.loss_burst(link, 1.0, 1.0, nan),
        lambda: plan.slow_host_at(b, 1.0, 1.0, nan),
    ):
        with pytest.raises(ValueError):
            declare()
    assert sim.pending_events == 0


def test_crash_for_rejects_nonpositive_duration(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    with pytest.raises(ValueError):
        plan.crash_for(b, 1.0, duration=0.0)
    with pytest.raises(ValueError):
        plan.crash_for(b, 1.0, duration=-1.0)


def test_rejects_overlapping_crash_windows_same_host(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.crash_for(b, 1.0, duration=2.0)        # [1, 3)
    with pytest.raises(ValueError):
        plan.crash_for(b, 2.0, duration=2.0)    # [2, 4) overlaps
    with pytest.raises(ValueError):
        plan.crash_at(b, 1.5)                   # inside [1, 3)
    # An open-ended crash blocks everything after it.
    plan.crash_at(b, 10.0)
    with pytest.raises(ValueError):
        plan.crash_for(b, 12.0, duration=1.0)
    # Closing it with a recovery frees the timeline again.
    plan.recover_at(b, 11.0)
    plan.crash_for(b, 12.0, duration=1.0)


def test_disjoint_crash_windows_and_other_hosts_are_fine(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.crash_for(b, 1.0, duration=1.0)
    plan.crash_for(b, 3.0, duration=1.0)        # disjoint: ok
    plan.crash_for(a, 1.5, duration=1.0)        # other host: ok
    sim.run(until=10.0)
    assert [e.time for e in plan.events_of("crash")] == [1.0, 1.5, 3.0]
    assert not a.crashed and not b.crashed


def test_rejects_overlapping_loss_burst_windows(net):
    """ISSUE 7 satellite: overlapping loss bursts on the same link would
    restore the *bursty* rate captured by the later window, silently
    leaving the link lossy forever — reject at declaration time."""
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.loss_burst(link, 1.0, duration=2.0, loss_rate=1.0)   # [1, 3)
    with pytest.raises(ValueError):
        plan.loss_burst(link, 2.0, duration=2.0, loss_rate=0.5)
    with pytest.raises(ValueError):
        plan.loss_burst(link, 0.5, duration=1.0, loss_rate=0.5)  # tail overlaps
    # Disjoint window on the same link: fine.
    plan.loss_burst(link, 3.0, duration=1.0, loss_rate=0.5)
    sim.run(until=10.0)
    assert link.a_to_b.loss_rate == 0.0 and link.b_to_a.loss_rate == 0.0


def test_rejects_overlapping_congest_windows(net):
    sim, topo, a, b, link, received = net
    original = link.a_to_b.bandwidth_bps
    plan = FaultPlan(sim)
    plan.congest(link, 1.0, duration=2.0, bandwidth_factor=0.1)
    with pytest.raises(ValueError):
        plan.congest(link, 2.5, duration=2.0, bandwidth_factor=0.5)
    plan.congest(link, 3.0, duration=1.0, bandwidth_factor=0.5)  # touching: ok
    sim.run(until=10.0)
    assert link.a_to_b.bandwidth_bps == original


def test_windowed_faults_of_different_kinds_may_overlap(net):
    """A loss burst and a congestion window touch *different* link
    attributes, so their windows may overlap freely (and restore both
    attributes correctly)."""
    sim, topo, a, b, link, received = net
    original = link.a_to_b.bandwidth_bps
    plan = FaultPlan(sim)
    plan.loss_burst(link, 1.0, duration=2.0, loss_rate=1.0)
    plan.congest(link, 1.5, duration=2.0, bandwidth_factor=0.1)  # overlaps: ok
    sim.run(until=10.0)
    assert link.a_to_b.loss_rate == 0.0
    assert link.a_to_b.bandwidth_bps == original


def test_windowed_faults_reject_empty_windows(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    with pytest.raises(ValueError):
        plan.loss_burst(link, 1.0, duration=0.0, loss_rate=1.0)
    with pytest.raises(ValueError):
        plan.congest(link, 1.0, duration=-1.0)
    with pytest.raises(ValueError):
        plan.loss_burst(link, -1.0, duration=1.0, loss_rate=1.0)
    with pytest.raises(ValueError):
        plan.partition_at(link, 1.0, duration=0.0)
    with pytest.raises(ValueError):
        plan.partition_oneway_at(link, "a_to_b", 1.0, duration=-2.0)
    with pytest.raises(ValueError):
        plan.partition_at(link, -1.0, duration=1.0)


def test_rejects_overlapping_partition_windows(net):
    """The silent-compose case: the first partition's heal fires in the
    middle of the second window and re-raises the link while it should
    still be down.  The plan must reject the schedule instead."""
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.partition_at(link, 1.0, duration=3.0)
    with pytest.raises(ValueError):
        plan.partition_at(link, 2.0, duration=5.0)
    # Permanent partitions hold the link forever: anything later overlaps.
    plan2 = FaultPlan(Simulator())
    plan2.partition_at(link, 1.0)
    with pytest.raises(ValueError):
        plan2.partition_at(link, 100.0, duration=1.0)


def test_rejects_partition_overlapping_oneway_same_direction(net):
    """A full partition owns both directions, so a one-way window in
    either direction inside it is the same silent-compose hazard."""
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.partition_at(link, 1.0, duration=3.0)
    with pytest.raises(ValueError):
        plan.partition_oneway_at(link, "a_to_b", 2.0, duration=1.0)
    with pytest.raises(ValueError):
        plan.partition_oneway_at(link, "b_to_a", 3.5, duration=1.0)
    # ... and the failed reservation must not leak: the same window is
    # fine once it no longer overlaps.
    plan.partition_oneway_at(link, "a_to_b", 4.5, duration=1.0)


def test_oneway_partitions_of_opposite_directions_may_overlap(net):
    """Two one-way windows on *different* directions touch different
    channels — no compose hazard, so they may overlap (this is how an
    asymmetric partition is layered into a symmetric one)."""
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.partition_oneway_at(link, "a_to_b", 1.0, duration=3.0)
    plan.partition_oneway_at(link, "b_to_a", 2.0, duration=3.0)
    sim.run(until=10.0)
    assert link.a_to_b.up and link.b_to_a.up


def test_disjoint_partition_windows_and_flap_still_work(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.flap(link, 1.0, period=2.0, duty_down=0.5, cycles=3)
    plan.partition_at(link, 10.0, duration=1.0)
    sim.schedule(12.0, ping, a, b)
    sim.run()
    assert len(received) == 1
    assert link.up


class TestGrayFaultPlan:
    def test_slow_host_applies_and_restores_multiplier(self, net):
        sim, topo, a, b, link, received = net
        plan = GrayFaultPlan(sim)
        plan.slow_host_at(b, 1.0, duration=2.0, factor=10.0)
        sim.schedule_at(1.5, lambda: received.append(b.cpu_multiplier))
        sim.run(until=5.0)
        assert received[0] == 10.0
        assert b.cpu_multiplier == 1.0
        assert [e.kind for e in plan.log] == ["slow-host", "slow-heal"]

    def test_slow_host_rejects_overlap_and_bad_factor(self, net):
        sim, topo, a, b, link, received = net
        plan = GrayFaultPlan(sim)
        plan.slow_host_at(b, 1.0, duration=2.0)
        with pytest.raises(ValueError):
            plan.slow_host_at(b, 2.0, duration=2.0)
        plan.slow_host_at(a, 2.0, duration=2.0)  # other host: ok
        with pytest.raises(ValueError):
            plan.slow_host_at(b, 5.0, duration=1.0, factor=0.5)

    def test_asymmetric_loss_applies_one_direction_only(self, net):
        sim, topo, a, b, link, received = net
        plan = GrayFaultPlan(sim)
        plan.asymmetric_loss_at(link, "a_to_b", 1.0, duration=1.0, loss_rate=1.0)
        received_a = []
        a.kernel.register_protocol(
            Protocol.ICMP, lambda p: received_a.append(sim.now)
        )
        sim.schedule(1.5, ping, a, b)   # lossy direction: dropped
        sim.schedule(1.5, ping, b, a)   # clean direction: delivered
        sim.schedule(2.5, ping, a, b)   # after the heal
        sim.run()
        assert len(received) == 1
        assert len(received_a) == 1
        assert link.a_to_b.loss_rate == 0.0

    def test_asymmetric_loss_windows_per_direction(self, net):
        sim, topo, a, b, link, received = net
        plan = GrayFaultPlan(sim)
        plan.asymmetric_loss_at(link, "a_to_b", 1.0, duration=2.0, loss_rate=0.5)
        with pytest.raises(ValueError):
            plan.asymmetric_loss_at(link, "a_to_b", 2.0, duration=2.0, loss_rate=0.5)
        # The other direction is a different channel: ok.
        plan.asymmetric_loss_at(link, "b_to_a", 2.0, duration=2.0, loss_rate=0.5)
        with pytest.raises(ValueError):
            plan.asymmetric_loss_at(link, "a_to_b", 5.0, duration=1.0, loss_rate=1.5)

    def test_ack_taps_share_a_window_reservation(self, net):
        """Only one tap can own a channel at a time: a corrupt window
        and a reorder window on the same channel would silently shadow
        each other, so they share the reservation."""
        sim, topo, a, b, link, received = net
        plan = GrayFaultPlan(sim)
        plan.corrupt_ack_at(link, "a_to_b", 1.0, duration=2.0)
        with pytest.raises(ValueError):
            plan.reorder_ack_at(link, "a_to_b", 2.0, duration=2.0)
        plan.reorder_ack_at(link, "b_to_a", 2.0, duration=2.0)  # other channel
        plan.reorder_ack_at(link, "a_to_b", 3.0, duration=1.0)  # disjoint
        sim.run(until=10.0)
        assert link.a_to_b.tap is None and link.b_to_a.tap is None

    def test_tap_rates_validated(self, net):
        sim, topo, a, b, link, received = net
        plan = GrayFaultPlan(sim)
        with pytest.raises(ValueError):
            plan.corrupt_ack_at(link, "a_to_b", 1.0, duration=1.0, rate=1.5)
        with pytest.raises(ValueError):
            plan.reorder_ack_at(link, "a_to_b", 1.0, duration=1.0, delay=0.0)

    def test_taps_pass_non_ack_traffic_untouched(self, net):
        sim, topo, a, b, link, received = net
        plan = GrayFaultPlan(sim)
        plan.corrupt_ack_at(link, "a_to_b", 1.0, duration=2.0, rate=1.0)
        sim.schedule(1.5, ping, a, b)  # ICMP: not ack-channel traffic
        sim.run()
        assert len(received) == 1
        assert plan.events_of("corrupt-ack") == []


def test_partition_records_heal_events(net):
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    plan.partition_at(link, 1.0, duration=1.5)
    plan.partition_oneway_at(link, "a_to_b", 4.0, duration=1.0)
    sim.run()
    assert [(e.kind, e.time) for e in plan.log] == [
        ("partition", 1.0),
        ("heal", 2.5),
        ("partition-oneway", 4.0),
        ("heal-oneway", 5.0),
    ]
    assert link.up and link.a_to_b.up


def test_loss_burst_and_congest_validate_at_declaration(net):
    """A loss rate outside [0, 1] or a bandwidth factor outside (0, 1]
    raises when declared and reserves nothing — not inside ``sim.run``
    when the window opens (or, for a zero factor, at the first packet)."""
    sim, topo, a, b, link, received = net
    plan = FaultPlan(sim)
    for loss_rate in (1.5, -0.1):
        with pytest.raises(ValueError):
            plan.loss_burst(link, 1.0, duration=1.0, loss_rate=loss_rate)
    for factor in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            plan.congest(link, 1.0, duration=1.0, bandwidth_factor=factor)
    plan.loss_burst(link, 1.0, duration=1.0, loss_rate=1.0)
    plan.congest(link, 1.0, duration=1.0, bandwidth_factor=1.0)
    sim.schedule(1.5, ping, a, b)
    sim.run(until=5.0)
    assert received == []
    assert [e.kind for e in plan.log] == ["loss-burst", "congest", "loss-heal", "decongest"]


def _liar():
    return SimpleNamespace(
        name="liar", ack_endpoint=SimpleNamespace(send=lambda message, dst_ip: None)
    )


#: Every windowed fault: (declare(plan, env, at, duration), read the
#: faulted value, (start kind, heal kind) in the log).
WINDOWED = {
    "partition": (
        lambda plan, env, at, d: plan.partition_at(env.link, at, d),
        lambda env: (env.link.a_to_b.up, env.link.b_to_a.up),
        ("partition", "heal"),
    ),
    "partition_oneway": (
        lambda plan, env, at, d: plan.partition_oneway_at(env.link, "a_to_b", at, d),
        lambda env: env.link.a_to_b.up,
        ("partition-oneway", "heal-oneway"),
    ),
    "loss_burst": (
        lambda plan, env, at, d: plan.loss_burst(env.link, at, d, loss_rate=0.5),
        lambda env: (env.link.a_to_b.loss_rate, env.link.b_to_a.loss_rate),
        ("loss-burst", "loss-heal"),
    ),
    "congest": (
        lambda plan, env, at, d: plan.congest(env.link, at, d, bandwidth_factor=0.5),
        lambda env: (env.link.a_to_b.bandwidth_bps, env.link.b_to_a.bandwidth_bps),
        ("congest", "decongest"),
    ),
    "slow_host": (
        lambda plan, env, at, d: plan.slow_host_at(env.host, at, d, factor=4.0),
        lambda env: env.host.cpu_multiplier,
        ("slow-host", "slow-heal"),
    ),
    "asym_loss": (
        lambda plan, env, at, d: plan.asymmetric_loss_at(
            env.link, "a_to_b", at, d, loss_rate=0.5
        ),
        lambda env: env.link.a_to_b.loss_rate,
        ("asym-loss", "asym-heal"),
    ),
    "corrupt_ack": (
        lambda plan, env, at, d: plan.corrupt_ack_at(env.link, "a_to_b", at, d),
        lambda env: env.link.a_to_b.tap,
        ("corrupt-ack-window", "corrupt-ack-window-heal"),
    ),
    "reorder_ack": (
        lambda plan, env, at, d: plan.reorder_ack_at(env.link, "a_to_b", at, d),
        lambda env: env.link.a_to_b.tap,
        ("reorder-ack-window", "reorder-ack-window-heal"),
    ),
    "lie_progress": (
        lambda plan, env, at, d: plan.lie_progress_at(env.node, at, d),
        lambda env: env.node.ack_endpoint.send,
        ("lie-progress", "lie-heal"),
    ),
}


@pytest.mark.parametrize("kind", list(WINDOWED))
def test_every_windowed_fault_reserves_applies_and_heals(net, kind):
    sim, topo, a, b, link, received = net
    link.a_to_b.loss_rate = 0.01  # a non-default value for the heal to restore
    env = SimpleNamespace(link=link, host=b, node=_liar())
    declare, read, (started, healed) = WINDOWED[kind]
    plan = GrayFaultPlan(sim)
    before = read(env)
    declare(plan, env, 1.0, 2.0)  # [1, 3)
    with pytest.raises(ValueError):
        declare(plan, env, 2.0, 2.0)  # overlaps [1, 3)
    # Touching is fine — and proves the refused [2, 4) reserved nothing.
    declare(plan, env, 3.0, 1.0)
    for at, duration in ((5.0, 0.0), (5.0, -1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            declare(plan, env, at, duration)
    during = []
    sim.schedule_at(2.0, lambda: during.append(read(env)))
    sim.run(until=10.0)
    assert during != [before]
    assert read(env) == before
    assert [(e.time, e.kind) for e in plan.log] == [
        (1.0, started), (3.0, healed), (3.0, started), (4.0, healed)
    ]
