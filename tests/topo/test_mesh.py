"""Compiled meshes: mesh-wide table sync, stale-stamp rejection,
routability from every edge, failover, and scenario determinism."""

import pytest

from repro.hydranet.daemons import TableSync
from repro.hydranet.redirector import ServiceKey
from repro.netsim import as_address
from repro.topo import (
    MeshWorkload,
    compile_spec,
    fat_tree,
    hub_and_spoke,
    mesh_task,
    run_mesh_scenario,
)


def small_mesh():
    return compile_spec(
        hub_and_spoke(spokes=2, servers_per_spoke=2, clients_per_spoke=1,
                      services=3, backups=1, seed=0)
    )


class TestMeshSync:
    def test_every_redirector_learns_every_service(self):
        mesh = small_mesh()
        points = {
            (str(as_address(ip)), port) for ip, port in mesh.service_points
        }
        for name, redirector in mesh.redirectors.items():
            have = {(str(k.ip), k.port) for k in redirector.table}
            assert points <= have, f"{name} is missing service entries"

    def test_authority_recorded_mesh_wide(self):
        mesh = small_mesh()
        for placement in mesh.spec.services:
            key = ServiceKey(as_address(placement.service_ip), placement.port)
            authority_ip = mesh.redirectors[placement.authority].ip
            for name, daemon in mesh.daemons.items():
                assert daemon.services[key].authority == authority_ip, (
                    f"{name} has wrong authority for {key}"
                )

    def test_flood_terminates_on_cyclic_mesh(self):
        # The fat-tree core tier is fully meshed: floods cross cycles
        # and must terminate via stamp gating (no infinite forwarding).
        mesh = compile_spec(fat_tree(pods=2, cores=2, services=4, seed=0))
        counters = mesh.mesh_counters()
        assert sum(c["syncs_forwarded"] for c in counters.values()) > 0
        for name, redirector in mesh.redirectors.items():
            assert len(redirector.table) == len(mesh.service_points)


class TestStaleSyncRejection:
    """Regression: a TableSync/ChainUpdate arriving out of order (the
    reliable mgmt channel is at-least-once and unordered) must never
    roll the table back to an older replica list or epoch."""

    def _sync(self, key, replicas, epoch, seq, authority_ip):
        return TableSync(
            service_ip=key.ip,
            port=key.port,
            fault_tolerant=True,
            replicas=tuple(replicas),
            epoch=epoch,
            seq=seq,
            authority_ip=authority_ip,
        )

    def test_reordered_older_sync_is_dropped(self):
        mesh = small_mesh()
        placement = mesh.spec.services[0]
        key = ServiceKey(as_address(placement.service_ip), placement.port)
        # The hub is a peer (not the authority) for every service here.
        daemon = mesh.daemons["hub"]
        authority_ip = mesh.redirectors[placement.authority].ip
        src = mesh.redirectors[placement.authority].ip
        epoch, seq = daemon.services[key].stamp

        new_list = [str(mesh.host_servers[n].ip) for n in placement.replicas]
        old_list = list(reversed(new_list))
        newer = self._sync(key, new_list, epoch + 1, seq + 2, authority_ip)
        older = self._sync(key, old_list, epoch + 1, seq + 1, authority_ip)

        dropped_before = daemon.stale_syncs_dropped
        daemon._handle_table_sync(newer, src)  # arrives first (reordered)
        applied = list(daemon.redirector.table[key].replicas)
        daemon._handle_table_sync(older, src)  # the older one limps in

        assert daemon.stale_syncs_dropped == dropped_before + 1
        assert list(daemon.redirector.table[key].replicas) == applied
        assert daemon.services[key].stamp == (epoch + 1, seq + 2)

    def test_duplicate_sync_is_dropped(self):
        mesh = small_mesh()
        placement = mesh.spec.services[0]
        key = ServiceKey(as_address(placement.service_ip), placement.port)
        daemon = mesh.daemons["hub"]
        src = mesh.redirectors[placement.authority].ip
        epoch, seq = daemon.services[key].stamp
        dup = self._sync(
            key,
            [str(mesh.host_servers[n].ip) for n in placement.replicas],
            epoch,
            seq,
            src,
        )
        dropped_before = daemon.stale_syncs_dropped
        daemon._handle_table_sync(dup, src)
        assert daemon.stale_syncs_dropped == dropped_before + 1

    def test_older_epoch_cannot_roll_back_fence(self):
        mesh = small_mesh()
        placement = mesh.spec.services[0]
        key = ServiceKey(as_address(placement.service_ip), placement.port)
        daemon = mesh.daemons["hub"]
        src = mesh.redirectors[placement.authority].ip
        epoch, seq = daemon.services[key].stamp
        newer = self._sync(key, ("10.0.0.1",), epoch + 2, 1, src)
        daemon._handle_table_sync(newer, src)
        table_epoch = daemon.redirector.table[key].epoch
        stale = self._sync(key, ("10.0.0.2",), epoch + 1, 99, src)
        daemon._handle_table_sync(stale, src)
        assert daemon.redirector.table[key].epoch == table_epoch
        assert [str(r) for r in daemon.redirector.table[key].replicas] == [
            "10.0.0.1"
        ]


class TestScenarios:
    def test_clients_reach_services_from_every_edge(self):
        # One connection per client host: interception must work at
        # every edge redirector, not just the authority's.
        spec = fat_tree(pods=2, edges_per_pod=2, servers_per_edge=2,
                        clients_per_edge=1, services=4, seed=1)
        n_clients = len(spec.hosts_by_role("client"))
        report = run_mesh_scenario(
            spec,
            MeshWorkload(connections=n_clients, requests_per_conn=2,
                         deadline=30.0),
        )
        assert report.green, report.violations
        assert report.completed == n_clients

    def test_failover_inside_mesh_stays_green(self):
        mesh_spec = hub_and_spoke(spokes=2, servers_per_spoke=2,
                                  clients_per_spoke=1, services=2,
                                  backups=1, seed=0)
        from repro.topo import MeshScenario

        scenario = MeshScenario(
            mesh_spec,
            MeshWorkload(connections=4, requests_per_conn=40,
                         think_time=0.02, deadline=60.0),
        )
        victim = scenario.mesh.host_servers[mesh_spec.services[0].primary]
        scenario.mesh.sim.schedule(1.0, victim.crash)
        report = scenario.run()
        assert report.violations == []
        assert report.completed == 4

    def test_mesh_task_is_deterministic(self):
        kwargs = dict(
            kind="hub_and_spoke",
            gen_params=dict(spokes=2, servers_per_spoke=2, services=3),
            workload_params=dict(connections=6, requests_per_conn=2),
            seed=4,
        )
        first = mesh_task(**kwargs)
        second = mesh_task(**kwargs)
        assert first == second
        assert first["green"] is True
