"""TopologySpec: fingerprints and structural validation."""

import pytest

from repro.topo import (
    HostSpec,
    LinkSpec,
    ServicePlacement,
    TopologySpec,
    spec_summary,
)


def tiny_spec(**overrides) -> TopologySpec:
    """A minimal valid two-redirector mesh for mutation tests."""
    base = dict(
        name="tiny",
        kind="hub_and_spoke",
        seed=0,
        hosts=(
            HostSpec("hub", "redirector", tier=1),
            HostSpec("spoke0", "redirector", tier=0),
            HostSpec("srv0", "server"),
            HostSpec("srv1", "server"),
            HostSpec("cli0", "client"),
        ),
        links=(
            LinkSpec("spoke0", "hub"),
            LinkSpec("srv0", "spoke0"),
            LinkSpec("srv1", "spoke0"),
            LinkSpec("cli0", "hub"),
        ),
        parents=(("spoke0", "hub"),),
        services=(
            ServicePlacement(
                "192.20.225.20", 5001, "srv0", ("srv1",), authority="spoke0"
            ),
        ),
        external=(("192.20.225.20/32", "hub"),),
    )
    base.update(overrides)
    return TopologySpec(**base)


class TestSerialization:
    def test_fingerprint_differs_on_content_change(self):
        assert tiny_spec().fingerprint() != tiny_spec(seed=1).fingerprint()


class TestValidation:
    def test_valid_spec_has_no_problems(self):
        assert tiny_spec().validate() == []
        assert tiny_spec().check() is not None

    def test_orphan_host(self):
        spec = tiny_spec(
            hosts=tiny_spec().hosts + (HostSpec("lost", "client"),)
        )
        assert any("orphan" in p for p in spec.validate())

    def test_unknown_link_endpoint(self):
        spec = tiny_spec(links=tiny_spec().links + (LinkSpec("srv0", "ghost"),))
        assert any("unknown host 'ghost'" in p for p in spec.validate())

    def test_peer_must_be_redirector(self):
        spec = tiny_spec(peers=(("hub", "srv0"),))
        assert any("not a redirector" in p for p in spec.validate())

    def test_multiple_parents_rejected(self):
        spec = tiny_spec(parents=(("spoke0", "hub"), ("spoke0", "hub")))
        assert any("multiple parents" in p for p in spec.validate())

    def test_replica_must_be_server(self):
        spec = tiny_spec(
            services=(
                ServicePlacement("192.20.225.20", 5001, "cli0", authority="hub"),
            )
        )
        assert any("not a server" in p for p in spec.validate())

    def test_duplicate_service_point(self):
        svc = ServicePlacement("192.20.225.20", 5001, "srv0", authority="hub")
        spec = tiny_spec(services=(svc, svc))
        assert any("duplicate service point" in p for p in spec.validate())

    def test_disconnected_mesh(self):
        # Two redirectors, no peer/parent relation between them: the
        # sync flood cannot cover the mesh.
        spec = tiny_spec(parents=())
        assert any("disconnected" in p for p in spec.validate())
        with pytest.raises(ValueError, match="invalid topology spec"):
            spec.check()


class TestHelpers:
    def test_neighbors(self):
        spec = tiny_spec()
        assert set(spec.neighbors("spoke0")) == {"hub", "srv0", "srv1"}

    def test_tiers_and_roles(self):
        spec = tiny_spec()
        assert spec.tiers == 2
        assert [h.name for h in spec.redirectors] == ["hub", "spoke0"]

    def test_summary_mentions_shape(self):
        text = spec_summary(tiny_spec())
        assert "2 redirectors" in text and "1 services" in text
