"""End-to-end recovery: crash -> autonomous restore -> crash again,
with continuous client traffic, on the era-calibrated Figure-4 topology.

Acceptance scenario for the recovery subsystem: with target degree 2
and one spare, crashing the primary mid-transfer must leave the backup
promoted, the spare auto-joined as the new last backup, the in-flight
byte stream intact at the client, and the chain back at full degree.
"""

from repro.apps.echo import echo_server_factory
from repro.core import DetectorParams
from repro.experiments.testbeds import build_ft_system
from repro.invariants import attach_invariants
from repro.recovery import RecoveryManager, SparePool, snapshot_connections

PORT = 5001


def build_unmanaged(n_spares=1):
    return build_ft_system(
        seed=0,
        n_backups=1,
        n_spares=n_spares,
        detector=DetectorParams(threshold=3, cooldown=1.0),
        factory=echo_server_factory,
        port=PORT,
    )


def attach_manager(system):
    return RecoveryManager(
        system.service,
        system.redirector_daemon,
        SparePool(system.spare_nodes),
        target_degree=2,
    )


def build(n_spares=1):
    system = build_unmanaged(n_spares)
    return system, attach_manager(system)


def start_client(system, chunks, size=400, interval=0.05, at=2.5):
    conn = system.client_node.connect(system.service_ip, PORT)
    received = bytearray()
    conn.on_data = received.extend
    sent = bytearray()
    counter = [0]

    def tick():
        if counter[0] >= chunks:
            return
        data = bytes([counter[0] % 256]) * size
        conn.send(data)
        sent.extend(data)
        counter[0] += 1
        system.sim.schedule(interval, tick)

    system.sim.schedule(at, tick)
    return conn, sent, received


def entry_for(system):
    return system.redirector_daemon.redirector.entry_for(system.service_ip, PORT)


def test_crash_mid_transfer_restores_full_degree():
    system, manager = build()
    _conn, sent, received = start_client(system, chunks=200)
    system.sim.schedule(4.0, system.servers[0].crash)
    system.run_until(60.0)

    # Backup promoted to primary, spare auto-joined as last backup.
    assert list(entry_for(system).replicas) == [
        system.nodes[1].ip,
        system.spare_nodes[0].ip,
    ]
    assert manager.joins_completed == 1
    assert manager.joins_aborted == 0

    # In-flight byte stream intact: every sent byte echoed back in order.
    assert len(sent) == 200 * 400
    assert bytes(received) == bytes(sent)

    # MTTR and state-transfer accounting recorded for the incident.
    assert len(manager.incidents) == 1
    incident = manager.incidents[0]
    assert 0 < incident.mttr < 30.0
    assert 0 < incident.catchup_duration <= incident.mttr
    assert incident.connections_transferred == 1
    assert incident.transfer_bytes > 0

    # Degree dipped to 1 during the outage and is back at 2.
    degrees = [d for _t, d in manager.timeline.points]
    assert 1 in degrees
    assert manager.timeline.degree_at(system.sim.now) == 2
    assert 0.5 < manager.timeline.availability(2, until=60.0) < 1.0


def test_crash_restore_crash_again():
    """The recovered node re-enters the spare pool and covers a second,
    later failure of the (promoted) primary."""
    system, manager = build()
    _conn, sent, received = start_client(system, chunks=600)

    system.sim.schedule(4.0, system.servers[0].crash)

    def recycle():
        system.servers[0].recover()
        manager.return_spare(system.nodes[0])

    system.sim.schedule(20.0, recycle)
    system.sim.schedule(25.0, system.servers[1].crash)
    system.run_until(90.0)

    assert manager.joins_completed == 2
    assert len(manager.incidents) == 2
    # Second recovery: the original primary, recycled as a spare, is
    # now the last backup behind the twice-promoted replica.
    assert list(entry_for(system).replicas) == [
        system.spare_nodes[0].ip,
        system.nodes[0].ip,
    ]
    assert bytes(received) == bytes(sent)
    assert manager.timeline.degree_at(system.sim.now) == 2


def test_manager_attached_late_transfers_only_later_connections():
    """Nothing retains a client stream until something can consume it
    (DESIGN.md §8): a connection opened before the manager attached is
    untransferable and keeps running on the replicas it has; one opened
    after is transferred and gated on the joiner."""
    system = build_unmanaged()
    invset = attach_invariants(system)
    primary = system.service.replicas[0].ft_port
    conn_a, sent_a, received_a = start_client(system, chunks=200, at=0.5)
    system.run_for(2.0)
    assert len(sent_a) >= 8192
    assert snapshot_connections(primary) == ([], set())

    manager = attach_manager(system)
    conn_b, sent_b, received_b = start_client(system, chunks=200, at=0.5)
    system.sim.schedule(2.0, system.servers[1].crash)  # the chain's tail
    system.run_until(60.0)

    spare = system.spare_nodes[0]
    assert manager.joins_completed == 1 and manager.joins_aborted == 0
    assert manager.incidents[0].connections_transferred == 1
    assert list(entry_for(system).replicas) == [system.nodes[0].ip, spare.ip]
    states = {key[1]: state for key, state in primary.states.items()}
    state_a, state_b = states[conn_a.local_port], states[conn_b.local_port]
    assert state_b.gated and state_b.members.straggler == spare.ip
    assert not state_a.gated and state_a.catchup_log.truncated
    joiner = system.service.replicas[-1].ft_port
    assert [key[1] for key in joiner.states] == [conn_b.local_port]
    for sent, received in ((sent_a, received_a), (sent_b, received_b)):
        assert len(sent) == 200 * 400
        assert bytes(received) == bytes(sent)
    assert invset.violations == []
