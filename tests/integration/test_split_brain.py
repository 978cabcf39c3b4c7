"""Split-brain prevention end to end: redirector-arbitrated epochs,
fenced fail-over, demotion, and rejoin (DESIGN.md §9).

The scenario the subsystem exists for: a primary that is partitioned —
not crashed — keeps serving its stale view.  The redirector must (a)
promote exactly one successor per epoch, (b) drop the ex-primary's
stale-stamped output before it can interleave with the new primary's,
and (c) demote the ex-primary after the heal so it rejoins as a backup.
"""

from repro.apps.echo import EchoStream, echo_server_factory
from repro.core import DetectorParams, PortMode
from repro.experiments.testbeds import build_ft_system
from repro.faults import FaultPlan
from repro.hydranet.mgmt import ChainUpdate, PromotionGrant
from repro.hydranet.redirector import ServiceKey
from repro.netsim.addressing import as_address
from repro.recovery import RecoveryManager, SparePool

from .test_chaos import continuous_client


def _fenced_system(seed):
    system = build_ft_system(
        seed=seed,
        n_backups=1,
        factory=echo_server_factory,
        port=7,
        detector=DetectorParams(threshold=3, cooldown=1.0),
    )
    manager = RecoveryManager(
        system.service,
        system.redirector_daemon,
        SparePool(),  # the demoted ex-primary is the only rejoin candidate
        target_degree=2,
    )
    return system, manager


def _sample_primaries_per_epoch(system, samples, period=0.25):
    def sample():
        per_epoch = {}
        for handle in system.service.replicas:
            port = handle.ft_port
            if (
                port.is_primary
                and not port.shut_down
                and not handle.node.host_server.crashed
            ):
                per_epoch[port.epoch] = per_epoch.get(port.epoch, 0) + 1
        samples.append(max(per_epoch.values(), default=0))
        system.sim.schedule(period, sample)

    system.sim.schedule(period, sample)


def test_symmetric_partition_single_promotion_and_rejoin():
    system, manager = _fenced_system(seed=0)
    ex_primary_port = system.service.replicas[0].ft_port
    conn, got, payload, events = continuous_client(system, 200_000)
    plan = FaultPlan(system.sim)
    link = system.topo.find_link("redirector", "hs_0")
    plan.partition_at(link, system.sim.now + 0.5, duration=20.0)
    samples = []
    _sample_primaries_per_epoch(system, samples)

    deadline = system.sim.now + 200.0
    while system.sim.now < deadline and len(got) < len(payload):
        system.run_for(1.0)
    system.run_for(20.0)  # let the demote/rejoin cycle finish

    assert bytes(got) == payload
    assert events == []
    # One promotion per epoch, never two primaries within one.
    assert max(samples) == 1
    assert system.redirector_daemon.promotions_granted >= 1
    entry = system.redirector.entry_for(system.service_ip, system.port)
    assert entry.epoch >= 1
    # The ex-primary stood down and rejoined as last backup.
    assert ex_primary_port.demotions == 1
    assert ex_primary_port.shut_down
    assert entry.replicas == [system.servers[1].ip, system.servers[0].ip]
    current = system.service.primary
    assert current is not None and current.node is system.nodes[1]


def test_oneway_partition_fence_blocks_stale_output():
    """Redirector->primary down only: the ex-primary still *transmits*
    on its stale view, so the epoch fence is the only thing standing
    between its output and the client."""
    system, manager = _fenced_system(seed=1)
    ex_primary_port = system.service.replicas[0].ft_port
    conn, got, payload, events = continuous_client(system, 200_000)
    plan = FaultPlan(system.sim)
    link = system.topo.find_link("redirector", "hs_0")
    # connect(redirector, hs_0) names the link "redirector<->hs_0", so
    # a_to_b is the redirector->hs_0 direction.
    assert link.name == "redirector<->hs_0"
    plan.partition_oneway_at(link, "a_to_b", system.sim.now + 0.5, duration=20.0)
    samples = []
    _sample_primaries_per_epoch(system, samples)

    deadline = system.sim.now + 200.0
    while system.sim.now < deadline and len(got) < len(payload):
        system.run_for(1.0)
    system.run_for(20.0)

    assert bytes(got) == payload
    assert events == []
    assert max(samples) == 1
    # The fence actually fired: stale-stamped segments were dropped.
    assert system.redirector.segments_fenced > 0
    assert system.redirector_daemon.demotes_sent >= 1
    assert ex_primary_port.demotions == 1
    entry = system.redirector.entry_for(system.service_ip, system.port)
    assert entry.replicas == [system.servers[1].ip, system.servers[0].ip]


def test_spurious_backup_bid_is_probed_not_granted():
    """A backup that bids for promotion while the primary is alive must
    not be granted: the redirector treats the bid as a suspicion and
    probes, and the probe finds the primary healthy."""
    system, _manager = _fenced_system(seed=2)
    backup_daemon = system.nodes[1].daemon
    backup_daemon.request_promotion(system.service_ip, system.port, epoch=0)
    system.run_for(15.0)

    assert system.redirector_daemon.promotions_granted == 0
    entry = system.redirector.entry_for(system.service_ip, system.port)
    assert entry.replicas == [system.servers[0].ip, system.servers[1].ip]
    assert entry.epoch == 0
    assert system.service.replicas[0].ft_port.is_primary
    assert not system.service.replicas[1].ft_port.is_primary


def test_promotion_grant_is_idempotent_per_epoch():
    """Retransmitted PromotionRequests for the same epoch re-send the
    grant to the same grantee but never mint a second one."""
    system, _manager = _fenced_system(seed=3)
    plan = FaultPlan(system.sim)
    link = system.topo.find_link("redirector", "hs_0")
    plan.partition_at(link, system.sim.now + 0.2, duration=15.0)
    conn, got, payload, events = continuous_client(system, 200_000)
    deadline = system.sim.now + 200.0
    while system.sim.now < deadline and len(got) < len(payload):
        system.run_for(1.0)
    entry = system.redirector.entry_for(system.service_ip, system.port)
    granted_before = system.redirector_daemon.promotions_granted
    assert granted_before >= 1  # the fail-over actually happened
    # Replay the winner's request for the current epoch.
    system.nodes[1].daemon.request_promotion(
        system.service_ip, system.port, epoch=entry.epoch
    )
    system.run_for(10.0)
    assert system.redirector_daemon.promotions_granted == granted_before
    assert bytes(got) == payload
    assert events == []


def test_backup_enters_primary_mode_only_through_a_grant():
    """The replica-side gate on its own: a backup named primary bids,
    and while its bids cannot reach the authority it stays a backup
    however long it waits.  The grant for the epoch it bid for is what
    promotes it."""
    system = build_ft_system(
        seed=4, n_backups=1, factory=echo_server_factory, port=7
    )
    backup = system.service.replicas[1].ft_port
    backup_daemon = system.nodes[1].daemon
    system.topo.find_link("redirector", "hs_1").set_up(False)
    epoch = backup.epoch + 1
    backup.apply_chain_update(
        ChainUpdate(
            system.service_ip,
            system.port,
            predecessor_ip=None,
            has_successor=False,
            is_primary=True,
            epoch=epoch,
        )
    )
    system.run_for(30.0)  # past every retry of the bid

    assert backup_daemon.channel.give_ups >= 1  # the bid went out and died
    assert backup.mode == PortMode.BACKUP
    assert backup.promotions == 0
    assert system.redirector_daemon.promotions_granted == 0

    backup.apply_promotion_grant(
        PromotionGrant(system.service_ip, system.port, system.servers[1].ip, epoch)
    )
    assert backup.mode == PortMode.PRIMARY
    assert backup.promotions == 1
    assert backup.epoch == epoch


def test_recreated_service_resumes_at_a_new_epoch():
    """The replica set empties, so the redirector deletes the table
    entry; a replica recommissioned afterwards is a new primary and
    must get a fresh view above every epoch granted before, not one of
    the old epochs (whose grant went to someone else)."""
    with build_ft_system(n_backups=1, factory=echo_server_factory, port=7) as system:
        daemon = system.redirector_daemon
        h0, h1 = system.service.replicas
        system.service.remove_replica(h0)
        system.run_for(2.0)
        assert h1.ft_port.is_primary and h1.ft_port.epoch == 1
        seen = system.redirector.entry_for(system.service_ip, system.port).epoch
        system.service.remove_replica(h1)
        system.run_for(2.0)
        assert system.redirector.entry_for(system.service_ip, system.port) is None
        granted, refused = daemon.promotions_granted, daemon.promotions_refused
        key = ServiceKey(as_address(system.service_ip), system.port)
        owners = dict(daemon.services[key].owners)
        assert max(owners) == seen

        handle = system.service.recommission(h0)
        system.run_for(2.0)
        assert daemon.promotions_granted == granted + 1
        assert daemon.promotions_refused == refused
        port = handle.ft_port
        assert port.is_primary and not port.shut_down
        assert port.epoch > seen
        # The view history is kept, never rewritten.
        assert daemon.services[key].owners == {**owners, port.epoch: system.servers[0].ip}
        stream = EchoStream(system.client_node, system.service_ip, system.port,
                            total_bytes=4096)
        system.run_for(10.0)
        assert bytes(stream.received) == bytes(stream.sent)
        assert len(stream.received) == 4096
