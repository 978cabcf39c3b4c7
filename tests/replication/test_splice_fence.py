"""Does a spliced *primary* need the promotion fence? (DESIGN.md §15.3)

A primary crash leaves one lone primary; the recovery manager splices a
spare in behind it.  The spliced port is then the client-visible
primary, and until the splice it ran ungated, so its acknowledgements
may lead the joiner's catch-up cut by whatever deltas are in flight.
The star backends arm the promotion fence at the splice for exactly
this; the chain arms none.  Here the lone primary is crashed 0 to
200 ms after its ``ChainSplice``, monitors armed: the joiner must take
over and finish the client stream with no violation.  The grid is
every 10 ms for checkpoint, the backend the fence protects, and every
50 ms for the two whose joiner reports every segment.

Measured outcome: every backend is clean at every instant.  With the
star's splice-time fence arming removed, checkpoint violates atomicity
(at the splice itself: its joiner reports once per checkpoint tick, so
the primary's next ACK leads the joiner's last claim) while broadcast
stays clean; the chain, with no fence at all, is clean because its
joiner reports every segment.
"""

import pytest

from repro.apps.echo import echo_server_factory
from repro.core import DetectorParams
from repro.core.ft_tcp import FtPort
from repro.experiments.testbeds import build_ft_system
from repro.invariants.monitors import attach_invariants
from repro.recovery import RecoveryManager, SparePool
from repro.replication import available_strategies

CHUNKS = 300
DENSE_MS = range(0, 201, 10)
COARSE_MS = range(0, 201, 50)


def crash_after_splice(backend, offset, monkeypatch):
    """Run the scenario; return (splice seen, client stream intact,
    surviving replicas, violated monitors)."""
    system = build_ft_system(
        seed=0,
        n_backups=1,
        n_spares=1,
        detector=DetectorParams(threshold=3, cooldown=1.0),
        factory=echo_server_factory,
        port=5001,
        strategy=backend,
    )
    invset = attach_invariants(system)
    RecoveryManager(
        system.service, system.redirector_daemon, SparePool(system.spare_nodes), target_degree=2
    )
    lone = system.servers[1]
    spliced = []
    apply_chain_splice = FtPort.apply_chain_splice

    def spy(port, splice):
        if port.host_server is lone and not spliced:
            spliced.append(port.sim.now)
            port.sim.schedule(offset, lone.crash)
        apply_chain_splice(port, splice)

    monkeypatch.setattr(FtPort, "apply_chain_splice", spy)
    conn = system.client_node.connect(system.service_ip, 5001)
    received, sent = bytearray(), bytearray()
    conn.on_data = received.extend

    def tick(n=0):
        if n < CHUNKS:
            data = bytes([n % 256]) * 400
            conn.send(data)
            sent.extend(data)
            system.sim.schedule(0.05, tick, n + 1)

    system.sim.schedule(2.5, tick)
    system.sim.schedule(4.0, system.servers[0].crash)
    system.run_until(80.0)
    entry = system.redirector_daemon.redirector.entry_for(system.service_ip, 5001)
    return (
        bool(spliced),
        bytes(received) == bytes(sent),
        list(entry.replicas),
        invset.violated_monitors(),
    )


@pytest.mark.parametrize("backend", available_strategies())
def test_lone_primary_crash_after_splice(backend, monkeypatch):
    bad = {}
    for ms in DENSE_MS if backend == "checkpoint" else COARSE_MS:
        with monkeypatch.context() as patch:
            spliced, intact, replicas, violated = crash_after_splice(backend, ms / 1000, patch)
        assert spliced
        if not intact or violated or len(replicas) != 1:
            bad[ms] = (intact, violated, replicas)
    assert bad == {}
