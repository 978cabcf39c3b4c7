"""The management plane's dispatch and evidence paths (DESIGN.md §13.3).

Messages are handed to ``RedirectorDaemon._on_message`` the way the
reliable layer would, at chosen simulated instants; what the daemon
sends is read from a spy on its channel.  No wall-clock time is used.
"""

from dataclasses import dataclass

import pytest

from repro.core.heartbeat import Heartbeat, HeartbeatDetector
from repro.hydranet import (
    FailureReport,
    HostServerDaemon,
    MGMT_PORT,
    MgmtMessage,
    Ping,
    RedirectorDaemon,
)
from repro.hydranet.daemons import FailureSummary, TableSync
from repro.netsim import IPAddress

from .conftest import HydranetNet

SERVICE = IPAddress(HydranetNet.SERVICE_IP)
#: A redirector elsewhere in the mesh that owns the service.
AUTHORITY = IPAddress("10.99.0.1")
#: Another redirector forwarding evidence up the mesh.
EDGE = IPAddress("10.99.0.2")


@dataclass
class Stray(MgmtMessage):
    """A message type no daemon registers a handler for."""


def spy(daemon):
    """Record every message the daemon sends, reliable or not."""
    sent = []

    def record(msg, dst, *args, **kwargs):
        sent.append((msg, dst))

    daemon.channel.send = daemon.channel.send_unreliable = record
    return sent


def deliver(daemon, message, src):
    daemon._on_message(message, src, MGMT_PORT)


def summary(suspects, reports=1, hops=1):
    return FailureSummary(SERVICE, 80, EDGE, suspects=tuple(suspects), reports=reports, hops=hops)


@pytest.fixture()
def edge():
    """A redirector that forwards for a service owned by AUTHORITY."""
    hnet = HydranetNet(with_origin=False)
    rd = RedirectorDaemon(hnet.redirector)
    sent = spy(rd)
    replicas = (hnet.hs_a.ip, hnet.hs_b.ip)
    deliver(rd, TableSync(SERVICE, 80, True, replicas, seq=1, authority_ip=AUTHORITY), AUTHORITY)
    return hnet, rd, sent


@pytest.fixture()
def authority():
    """The service's authority, with a registered primary and backup."""
    hnet = HydranetNet(with_origin=False)
    rd = RedirectorDaemon(hnet.redirector)
    da = HostServerDaemon(hnet.hs_a, hnet.redirector.ip)
    db = HostServerDaemon(hnet.hs_b, hnet.redirector.ip)
    da.register(SERVICE, 80, "primary", "chain")
    db.register(SERVICE, 80, "backup", "chain")
    hnet.run(until=2.0)
    return hnet, rd


def summaries(sent):
    return [(msg, dst) for msg, dst in sent if isinstance(msg, FailureSummary)]


def test_edge_batches_reports_into_one_summary(edge):
    hnet, rd, sent = edge
    a, b = hnet.hs_a.ip, hnet.hs_b.ip
    for at, suspect in ((0.0, a), (0.1, b), (0.2, a)):
        report = FailureReport(SERVICE, 80, b, (suspect,))
        hnet.sim.schedule_at(at, deliver, rd, report, b)
    hnet.run(until=1.0)
    [(msg, dst)] = summaries(sent)
    assert dst == AUTHORITY
    assert msg.reports == 3
    assert set(msg.suspects) == {a, b}
    assert msg.hops == 1
    assert rd.failure_summaries_sent == 1


def test_summary_past_the_hop_cap_is_dropped(edge):
    hnet, rd, sent = edge
    deliver(rd, summary([hnet.hs_a.ip], hops=RedirectorDaemon.MAX_SUMMARY_HOPS), EDGE)
    hnet.run(until=1.0)
    assert rd.failure_summaries_received == 1
    assert summaries(sent) == []


def test_summary_at_threshold_removes_member_without_probe(authority):
    hnet, rd = authority
    sent = spy(rd)
    threshold = RedirectorDaemon.CONGESTION_REPORT_THRESHOLD
    deliver(rd, summary([hnet.hs_b.ip], reports=threshold), EDGE)
    assert hnet.redirector.entry_for(SERVICE, 80).replicas == [hnet.hs_a.ip]
    assert rd.reconfigurations == 1
    assert not [m for m, _ in sent if isinstance(m, Ping)]


def test_summary_naming_a_non_member_only_probes(authority):
    hnet, rd = authority
    replicas = list(hnet.redirector.entry_for(SERVICE, 80).replicas)
    sent = spy(rd)
    deliver(rd, summary([IPAddress("10.0.0.99")], reports=5), EDGE)
    assert hnet.redirector.entry_for(SERVICE, 80).replicas == replicas
    assert rd.reconfigurations == 0
    # One probe: one ping to each replica, nothing re-pinged yet.
    pings = [dst for m, dst in sent if isinstance(m, Ping)]
    assert sorted(pings, key=int) == sorted(replicas, key=int)


def test_unknown_message_type_is_ignored(authority):
    hnet, rd = authority
    sent = spy(rd)
    deliver(rd, Stray(), EDGE)
    assert sent == []
    assert rd.reconfigurations == 0


def test_heartbeat_detector_dispose_removes_its_handler(authority):
    hnet, rd = authority
    detector = HeartbeatDetector(rd)
    assert rd.handlers[Heartbeat] == detector.on_heartbeat
    detector.dispose()
    assert Heartbeat not in rd.handlers
