"""Tests for the high-level ReplicatedTcpService API surface."""


from repro.core import PortMode

from .conftest import SERVICE_IP


def test_replica_handles_expose_roles(testbed):
    assert testbed.primary_handle.is_primary
    assert testbed.primary_handle.mode == PortMode.PRIMARY
    assert not testbed.backup_handles[0].is_primary
    assert testbed.backup_handles[0].mode == PortMode.BACKUP


def test_primary_property_tracks_promotion(testbed):
    assert testbed.service.primary is testbed.primary_handle
    conn = testbed.connect()
    payload = b"x" * 120_000
    sent = {"n": 0}

    def pump():
        while sent["n"] < len(payload):
            n = conn.send(payload[sent["n"] : sent["n"] + 2048])
            sent["n"] += n
            if n == 0:
                return

    conn.on_established = pump
    conn.on_send_space = pump
    testbed.run_for(0.05)
    testbed.primary_server.crash()  # mid-transfer: detectable
    testbed.run_for(60.0)
    assert testbed.service.primary is testbed.backup_handles[0]


def test_status_report_contents(testbed):
    conn = testbed.connect()
    testbed.run_for(1.0)
    text = testbed.service.status()
    assert SERVICE_IP in text
    assert "primary" in text
    assert "backup" in text
    assert "conns=1" in text
    assert "hs_a" in text and "hs_b" in text


def test_status_shows_crash(testbed):
    testbed.primary_server.crash()
    assert "CRASHED" in testbed.service.status()


def test_remove_replica_updates_handles(testbed):
    handle = testbed.backup_handles[0]
    testbed.service.remove_replica(handle)
    assert handle not in testbed.service.replicas
    assert handle.ft_port.shut_down


def test_factory_called_once_per_replica(testbed):
    # The wrapped factory in the fixture records one handler per host.
    assert set(testbed.factories) == {"hs_a", "hs_b"}
