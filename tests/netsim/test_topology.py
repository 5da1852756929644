"""Tests for the synthetic Internet topology builder."""

import numpy as np
import pytest

from repro.netsim import (
    AsRole,
    Origin,
    Scope,
    TopologyConfig,
    build_topology,
    propagate,
)
from repro.util import airport


@pytest.fixture(scope="module")
def topo():
    config = TopologyConfig(n_stubs=120)
    return build_topology(config, np.random.default_rng(7))


class TestConfig:
    def test_rejects_zero_stubs(self):
        with pytest.raises(ValueError):
            TopologyConfig(n_stubs=0)

    def test_rejects_bad_multihome(self):
        with pytest.raises(ValueError):
            TopologyConfig(multihome_fraction=1.5)

    def test_rejects_unnormalised_weights(self):
        with pytest.raises(ValueError):
            TopologyConfig(region_weights={"EU": 0.5})


class TestBuild:
    def test_counts(self, topo):
        assert len(topo.transit_asns) == 21
        assert len(topo.stub_asns) == 120
        assert len(topo.graph) == 141

    def test_core_is_full_mesh(self, topo):
        n = len(topo.transit_asns)
        for asn in topo.transit_asns:
            assert len(topo.graph.peers(asn)) == n - 1

    def test_stubs_have_providers_only(self, topo):
        for asn in topo.stub_asns:
            assert topo.graph.providers(asn)
            assert not topo.graph.customers(asn)

    def test_stub_regions_biased_to_europe(self):
        config = TopologyConfig(n_stubs=600)
        topo = build_topology(config, np.random.default_rng(0))
        europe = sum(
            1
            for asn in topo.stub_asns
            if topo.graph.node(asn).name.startswith("stub-EU")
        )
        assert 0.5 < europe / len(topo.stub_asns) < 0.75

    def test_deterministic_for_seed(self):
        config = TopologyConfig(n_stubs=50)
        a = build_topology(config, np.random.default_rng(3))
        b = build_topology(config, np.random.default_rng(3))
        locs_a = [
            (n.location.lat, n.location.lon) for n in a.graph.nodes()
        ]
        locs_b = [
            (n.location.lat, n.location.lon) for n in b.graph.nodes()
        ]
        assert locs_a == locs_b

    def test_nearest_transits_sorted_by_distance(self, topo):
        ams = airport("AMS").location
        nearest = topo.nearest_transits(ams, k=3)
        names = [topo.graph.node(asn).name for asn in nearest]
        assert names[0] == "transit-AMS"


class TestSiteHosts:
    def test_global_site_dual_homed(self, topo):
        asn = topo.add_site_host("X-AMS", airport("AMS").location, Scope.GLOBAL)
        assert len(topo.graph.providers(asn)) == 2
        assert topo.graph.node(asn).role is AsRole.SITE_HOST

    def test_local_site_peers_with_nearby_stubs(self, topo):
        asn = topo.add_site_host("X-FRA", airport("FRA").location, Scope.LOCAL)
        assert len(topo.graph.providers(asn)) == 1
        # Europe-biased stubs guarantee some IXP peers near Frankfurt.
        assert topo.graph.peers(asn)

    def test_duplicate_site_rejected(self, topo):
        topo.add_site_host("X-LHR", airport("LHR").location, Scope.GLOBAL)
        with pytest.raises(ValueError):
            topo.add_site_host("X-LHR", airport("LHR").location, Scope.GLOBAL)

    def test_no_site_host_once_routed(self):
        # Routing finishes the graph, so every site must be wired in
        # before the first table is computed.
        topo = build_topology(
            TopologyConfig(n_stubs=30), np.random.default_rng(3)
        )
        ams = airport("AMS").location
        asn = topo.add_site_host("X-AMS", ams, Scope.GLOBAL)
        propagate(topo.graph, [Origin(site="AMS", asn=asn, location=ams)])
        n_ases = len(topo.graph)
        with pytest.raises(ValueError, match=f"cannot add AS {asn + 1}"):
            topo.add_site_host("X-LHR", airport("LHR").location, Scope.GLOBAL)
        assert len(topo.graph) == n_ases
        assert "X-LHR" not in topo.site_host_asns


class TestEndToEndCatchments:
    def test_catchments_are_geographic(self):
        """An EU and a US site split stubs roughly along geography."""
        config = TopologyConfig(n_stubs=200)
        topo = build_topology(config, np.random.default_rng(11))
        ams = topo.add_site_host("T-AMS", airport("AMS").location, Scope.GLOBAL)
        iad = topo.add_site_host("T-IAD", airport("IAD").location, Scope.GLOBAL)
        table = propagate(
            topo.graph,
            [
                Origin(site="T-AMS", asn=ams, location=airport("AMS").location),
                Origin(site="T-IAD", asn=iad, location=airport("IAD").location),
            ],
        )
        catchments = table.catchments()
        # Every stub is served.
        served = set()
        for asns in catchments.values():
            served |= asns
        assert set(topo.stub_asns) <= served
        # European stubs overwhelmingly reach the Amsterdam site.
        eu_stubs = [
            asn
            for asn in topo.stub_asns
            if topo.graph.node(asn).name.startswith("stub-EU")
        ]
        to_ams = sum(
            1 for asn in eu_stubs if table.site_of(asn) == "T-AMS"
        )
        assert to_ams / len(eu_stubs) > 0.9
