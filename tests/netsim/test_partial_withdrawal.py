"""Property tests for partial withdrawal (blocked-neighbor export)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    AnycastPrefix,
    Origin,
    Scope,
    TopologyConfig,
    build_topology,
)
from repro.util import airport


def _build(n_stubs=120, seed=9):
    topo = build_topology(
        TopologyConfig(n_stubs=n_stubs), np.random.default_rng(seed)
    )
    sites = {}
    for code in ("AMS", "LHR", "IAD"):
        asn = topo.add_site_host(
            f"P-{code}", airport(code).location, Scope.GLOBAL,
            ixp_peering=True, ixp_radius_km=300.0, ixp_max_peers=10,
        )
        sites[code] = asn
    prefix = AnycastPrefix(
        topo.graph,
        [
            Origin(site=code, asn=asn,
                   location=airport(code).location)
            for code, asn in sites.items()
        ],
    )
    return topo, prefix, sites


@pytest.fixture(scope="module")
def world():
    return _build()


class TestPartialWithdrawal:
    def test_peers_stay_stuck(self, world):
        topo, prefix, sites = world
        peers = set(topo.graph.peers(sites["LHR"]))
        providers = frozenset(topo.graph.providers(sites["LHR"]))
        before = {
            a: prefix.routing().site_of(a) for a in topo.stub_asns
        }
        prefix.set_blocked("LHR", providers)
        after = {
            a: prefix.routing().site_of(a) for a in topo.stub_asns
        }
        prefix.set_blocked("LHR", frozenset())
        for asn in topo.stub_asns:
            if asn in peers and before[asn] == "LHR":
                assert after[asn] == "LHR", "IXP peer must stay stuck"
        # Non-peered LHR clients shift away.
        moved = [
            a for a in topo.stub_asns
            if before[a] == "LHR" and a not in peers
        ]
        if moved:
            assert all(after[a] != "LHR" for a in moved)

    def test_restore_is_exact_inverse(self, world):
        topo, prefix, sites = world
        providers = frozenset(topo.graph.providers(sites["LHR"]))
        before = {
            a: prefix.routing().site_of(a) for a in topo.stub_asns
        }
        prefix.set_blocked("LHR", providers)
        prefix.set_blocked("LHR", frozenset())
        after = {
            a: prefix.routing().site_of(a) for a in topo.stub_asns
        }
        assert before == after

    def test_everyone_still_served(self, world):
        topo, prefix, sites = world
        providers = frozenset(topo.graph.providers(sites["LHR"]))
        prefix.set_blocked("LHR", providers)
        table = prefix.routing()
        unreached = [
            a for a in topo.stub_asns if table.site_of(a) is None
        ]
        prefix.set_blocked("LHR", frozenset())
        assert not unreached

    def test_change_log_records_partial_transitions(self, world):
        # set_blocked reports exactly the ASes whose route moved, the
        # set LetterDeployment.act records.
        topo, prefix, sites = world
        providers = frozenset(topo.graph.providers(sites["AMS"]))
        before = prefix.routing().routes()
        changed = prefix.set_blocked("AMS", providers)
        after = prefix.routing().routes()
        assert changed == {
            a for a in before.keys() | after.keys()
            if before.get(a) != after.get(a)
        }
        assert prefix.set_blocked("AMS", frozenset()) == changed

    def test_idempotent_block(self, world):
        topo, prefix, sites = world
        providers = frozenset(topo.graph.providers(sites["IAD"]))
        assert prefix.set_blocked("IAD", providers) is not None
        assert prefix.set_blocked("IAD", providers) is None
        prefix.set_blocked("IAD", frozenset())

    def test_unknown_site_rejected(self, world):
        _, prefix, _ = world
        with pytest.raises(KeyError):
            prefix.set_blocked("ZZZ", frozenset())
        with pytest.raises(KeyError):
            prefix.blocked_neighbors("ZZZ")


class TestSeedRobustness:
    """Guard against seed-fragile headline dynamics."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_partial_withdrawal_shape_across_seeds(self, seed):
        topo, prefix, sites = _build(n_stubs=100, seed=seed)
        providers = frozenset(topo.graph.providers(sites["LHR"]))
        before = {
            a: prefix.routing().site_of(a) for a in topo.stub_asns
        }
        prefix.set_blocked("LHR", providers)
        after = {
            a: prefix.routing().site_of(a) for a in topo.stub_asns
        }
        lhr_before = sum(1 for s in before.values() if s == "LHR")
        lhr_after = sum(1 for s in after.values() if s == "LHR")
        assert lhr_after <= lhr_before
        assert all(site is not None for site in after.values())
