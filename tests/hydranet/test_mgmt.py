"""Tests for the replica management protocol and daemons."""

import random

import pytest

from repro.hydranet import (
    ARBITRATION_RETRY,
    ChainUpdate,
    HostServerDaemon,
    JOIN_RETRY,
    MGMT_PORT,
    Register,
    RedirectorDaemon,
    ReliableUdp,
    RetryPolicy,
    Shutdown,
)
from repro.sockets import node_for

from .conftest import HydranetNet

SERVICE = HydranetNet.SERVICE_IP


@pytest.fixture()
def managed():
    """Topology with daemons on the redirector and both host servers."""
    hnet = HydranetNet(with_origin=False)
    rd = RedirectorDaemon(hnet.redirector)
    da = HostServerDaemon(hnet.hs_a, hnet.redirector.ip)
    db = HostServerDaemon(hnet.hs_b, hnet.redirector.ip)
    return hnet, rd, da, db


class TestReliableUdp:
    def build_pair(self, hnet):
        node_a = node_for(hnet.client)
        node_b = node_for(hnet.hs_a)
        inbox = []
        sock_b = node_b.udp_socket()
        sock_b.bind(MGMT_PORT)
        chan_b = ReliableUdp(hnet.sim, sock_b, lambda m, ip, p: inbox.append(m))
        sock_a = node_a.udp_socket()
        sock_a.bind(MGMT_PORT)
        chan_a = ReliableUdp(hnet.sim, sock_a, lambda m, ip, p: None)
        return chan_a, chan_b, inbox

    def test_delivery_and_ack(self, hnet_no_origin):
        hnet = hnet_no_origin
        chan_a, chan_b, inbox = self.build_pair(hnet)
        msg = Register(hnet.hs_a.ip, 80, hnet.hs_a.ip, "primary", "chain")
        chan_a.send(msg, hnet.hs_a.ip)
        hnet.run(until=5.0)
        assert len(inbox) == 1
        assert not chan_a._pending  # acked

    def test_retransmits_through_loss(self, hnet_no_origin):
        hnet = hnet_no_origin
        chan_a, chan_b, inbox = self.build_pair(hnet)
        link = hnet.topo.find_link("client", "redirector")
        link.set_up(False)  # first transmissions are lost...
        hnet.sim.schedule(1.2, link.set_up, True)  # ...then the path heals
        msg = Register(hnet.hs_a.ip, 80, hnet.hs_a.ip, "primary", "chain")
        chan_a.send(msg, hnet.hs_a.ip)
        hnet.run(until=10.0)
        assert len(inbox) == 1  # delivered exactly once despite loss
        assert chan_a.retransmissions > 0

    def test_duplicates_dropped(self, hnet_no_origin):
        hnet = hnet_no_origin
        chan_a, chan_b, inbox = self.build_pair(hnet)
        # Drop all acks (hs_a -> client direction) so the sender keeps
        # retransmitting the same message.
        hnet.topo.find_link("client", "redirector").b_to_a.loss_rate = 1.0
        msg = Register(hnet.hs_a.ip, 80, hnet.hs_a.ip, "primary", "chain")
        chan_a.send(msg, hnet.hs_a.ip)
        hnet.run(until=10.0)
        assert len(inbox) == 1
        assert chan_b.duplicates_dropped > 0

    def test_gives_up_after_max_tries(self, hnet_no_origin):
        hnet = hnet_no_origin
        chan_a, chan_b, inbox = self.build_pair(hnet)
        hnet.topo.find_link("client", "redirector").set_loss_rate(1.0)
        msg = Register(hnet.hs_a.ip, 80, hnet.hs_a.ip, "primary", "chain")
        chan_a.send(msg, hnet.hs_a.ip)
        hnet.run(until=60.0)
        assert inbox == []
        assert not chan_a._pending

    def test_policy_exhaustion_fires_give_up_callback(self, hnet_no_origin):
        hnet = hnet_no_origin
        chan_a, chan_b, inbox = self.build_pair(hnet)
        hnet.topo.find_link("client", "redirector").set_loss_rate(1.0)
        abandoned = []
        msg = Register(hnet.hs_a.ip, 80, hnet.hs_a.ip, "primary", "chain")
        chan_a.send(
            msg, hnet.hs_a.ip, policy=ARBITRATION_RETRY, on_give_up=abandoned.append
        )
        hnet.run(until=60.0)
        assert abandoned == [msg]
        assert chan_a.give_ups == 1
        assert inbox == []
        assert not chan_a._pending

    def test_give_up_does_not_fire_on_delivery(self, hnet_no_origin):
        hnet = hnet_no_origin
        chan_a, chan_b, inbox = self.build_pair(hnet)
        abandoned = []
        msg = Register(hnet.hs_a.ip, 80, hnet.hs_a.ip, "primary", "chain")
        chan_a.send(
            msg, hnet.hs_a.ip, policy=ARBITRATION_RETRY, on_give_up=abandoned.append
        )
        hnet.run(until=10.0)
        assert len(inbox) == 1
        assert abandoned == []
        assert chan_a.give_ups == 0


class TestRetryPolicy:
    def test_exponential_backoff_caps_at_max_interval(self):
        policy = RetryPolicy(
            interval=0.3, backoff=2.0, max_interval=4.0, jitter=0.0, max_tries=6
        )
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in range(6)]
        assert delays == [0.3, 0.6, 1.2, 2.4, 4.0, 4.0]

    def test_default_policy_is_fixed_interval(self):
        rng = random.Random(0)
        policy = RetryPolicy()
        assert [policy.delay(n, rng) for n in range(4)] == [0.5] * 4

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(
            interval=1.0, backoff=2.0, max_interval=8.0, jitter=0.2, max_tries=8
        )
        rng = random.Random(42)
        for attempt in range(8):
            base = min(1.0 * 2.0**attempt, 8.0)
            for _ in range(50):
                d = policy.delay(attempt, rng)
                assert base * 0.8 <= d <= base * 1.2
                assert d > 0

    def test_shipped_policies_back_off(self):
        rng = random.Random(7)
        for policy in (ARBITRATION_RETRY, JOIN_RETRY):
            assert policy.backoff > 1.0
            assert policy.jitter > 0.0
            # Later attempts wait longer on average than the first.
            first = sum(policy.delay(0, rng) for _ in range(50)) / 50
            late = sum(policy.delay(5, rng) for _ in range(50)) / 50
            assert late > first * 2


class TestRegistration:
    def test_register_primary_updates_table(self, managed):
        hnet, rd, da, db = managed
        da.register(SERVICE, 80, "primary", "chain")
        hnet.run(until=5.0)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry is not None
        assert entry.primary == hnet.hs_a.ip
        assert entry.fault_tolerant

    def test_register_backup_appends_to_chain(self, managed):
        hnet, rd, da, db = managed
        da.register(SERVICE, 80, "primary", "chain")
        db.register(SERVICE, 80, "backup", "chain")
        hnet.run(until=5.0)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.replicas == [hnet.hs_a.ip, hnet.hs_b.ip]

    def test_chain_updates_reach_members(self, managed):
        hnet, rd, da, db = managed
        updates_a, updates_b = [], []
        da.handlers[ChainUpdate] = lambda m, src: updates_a.append(m)
        db.handlers[ChainUpdate] = lambda m, src: updates_b.append(m)
        da.register(SERVICE, 80, "primary", "chain")
        db.register(SERVICE, 80, "backup", "chain")
        hnet.run(until=5.0)
        last_a, last_b = updates_a[-1], updates_b[-1]
        assert last_a.is_primary and last_a.predecessor_ip is None
        assert last_a.has_successor
        assert not last_b.is_primary and last_b.predecessor_ip == hnet.hs_a.ip
        assert not last_b.has_successor

    def test_unregister_primary_promotes_backup(self, managed):
        hnet, rd, da, db = managed
        updates_b = []
        db.handlers[ChainUpdate] = lambda m, src: updates_b.append(m)
        da.register(SERVICE, 80, "primary", "chain")
        db.register(SERVICE, 80, "backup", "chain")
        hnet.run(until=5.0)
        da.unregister(SERVICE, 80)
        hnet.run(until=10.0)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.replicas == [hnet.hs_b.ip]
        assert updates_b[-1].is_primary
        assert not updates_b[-1].has_successor

    def test_register_scaling_mode(self, managed):
        hnet, rd, da, db = managed
        da.register(SERVICE, 80, "scaling", "chain")
        hnet.run(until=5.0)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry is not None and not entry.fault_tolerant


class TestFailureHandling:
    def register_pair(self, managed):
        hnet, rd, da, db = managed
        da.register(SERVICE, 80, "primary", "chain")
        db.register(SERVICE, 80, "backup", "chain")
        hnet.run(until=5.0)
        return hnet, rd, da, db

    def test_dead_primary_removed_and_backup_promoted(self, managed):
        hnet, rd, da, db = self.register_pair(managed)
        updates_b = []
        db.handlers[ChainUpdate] = lambda m, src: updates_b.append(m)
        hnet.hs_a.crash()
        db.report_failure(SERVICE, 80)
        hnet.run(until=15.0)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.replicas == [hnet.hs_b.ip]
        assert updates_b[-1].is_primary
        assert rd.failovers == 1

    def test_alive_replicas_survive_probe(self, managed):
        hnet, rd, da, db = self.register_pair(managed)
        db.report_failure(SERVICE, 80)  # spurious report, everyone alive
        hnet.run(until=15.0)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.replicas == [hnet.hs_a.ip, hnet.hs_b.ip]
        assert rd.reconfigurations == 0

    def test_dead_backup_removed(self, managed):
        hnet, rd, da, db = self.register_pair(managed)
        shutdowns = []
        da.handlers[Shutdown] = lambda m, src: shutdowns.append(m)
        hnet.hs_b.crash()
        da.report_failure(SERVICE, 80)
        hnet.run(until=15.0)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.replicas == [hnet.hs_a.ip]
        assert rd.failovers == 0  # primary unchanged

    def test_repeated_reports_shut_down_congested_suspect(self, managed):
        """A suspect that answers pings but keeps being reported is
        removed anyway (fail-stop under congestion)."""
        hnet, rd, da, db = self.register_pair(managed)
        for _ in range(3):
            db.report_failure(SERVICE, 80, suspects=[hnet.hs_a.ip])
            hnet.run(until=hnet.sim.now + 2.0)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.replicas == [hnet.hs_b.ip]

    def test_concurrent_reports_trigger_single_probe(self, managed):
        hnet, rd, da, db = self.register_pair(managed)
        hnet.hs_a.crash()
        db.report_failure(SERVICE, 80)
        db.report_failure(SERVICE, 80)
        hnet.run(until=15.0)
        assert rd.reconfigurations == 1
