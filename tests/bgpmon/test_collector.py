"""Tests for BGPmon-style collectors."""

import numpy as np
import pytest

from repro.bgpmon import BgpCollectors, BgpmonConfig, build_collectors
from repro.netsim import TopologyConfig, build_topology
from repro.rootdns import ActionKind, RoutingAction
from repro.util import TimeGrid


@pytest.fixture(scope="module")
def topo():
    return build_topology(TopologyConfig(n_stubs=200),
                          np.random.default_rng(2))


class TestBuild:
    def test_peer_count(self, topo):
        collectors = build_collectors(
            topo, BgpmonConfig(n_peers=152), np.random.default_rng(1)
        )
        assert len(collectors) == 152

    def test_peers_are_real_ases(self, topo):
        collectors = build_collectors(
            topo, BgpmonConfig(n_peers=50), np.random.default_rng(1)
        )
        known = set(topo.stub_asns) | set(topo.transit_asns)
        assert set(int(a) for a in collectors.peer_asns) <= known

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BgpmonConfig(n_peers=0)
        with pytest.raises(ValueError):
            BgpmonConfig(na_bias=2.0)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            BgpCollectors(np.array([], dtype=np.int64))


class TestRouteChanges:
    def test_changes_attributed_to_bins(self, topo):
        from repro.netsim import AnycastPrefix, Origin

        grid = TimeGrid(start=0, bin_seconds=600, n_bins=6)
        stubs = topo.stub_asns[:20]
        prefix = AnycastPrefix(
            topo.graph,
            [
                Origin(site="X", asn=topo.transit_asns[0]),
                Origin(site="Y", asn=topo.transit_asns[5]),
            ],
        )
        collectors = BgpCollectors(np.asarray(stubs, dtype=np.int64))
        actions = [
            RoutingAction(  # bin 1
                650.0, "X", ActionKind.WITHDRAW, "fault",
                prefix.set_announced("X", False),
            ),
            RoutingAction(  # bin 3
                1850.0, "X", ActionKind.ANNOUNCE, "fault",
                prefix.set_announced("X", True),
            ),
        ]
        counts = collectors.route_changes_per_bin(
            actions, grid, np.random.default_rng(1)
        )
        assert counts[1] > 0
        assert counts[3] > 0
        assert counts[0] == 0
        assert counts[2] == 0

    def test_out_of_grid_changes_ignored(self, topo):
        from repro.netsim import AnycastPrefix, Origin

        grid = TimeGrid(start=1000, bin_seconds=600, n_bins=2)
        prefix = AnycastPrefix(
            topo.graph, [Origin(site="X", asn=topo.transit_asns[0])]
        )
        changed = prefix.set_announced("X", False)
        assert changed
        actions = [
            # Before the grid, then inside it but moving no route.
            RoutingAction(10.0, "X", ActionKind.WITHDRAW, "fault", changed),
            RoutingAction(
                1100.0, "X", ActionKind.PARTIAL, "policy", frozenset()
            ),
        ]
        collectors = BgpCollectors(
            np.asarray(topo.stub_asns[:10], dtype=np.int64)
        )
        rng = np.random.default_rng(1)
        counts = collectors.route_changes_per_bin(actions, grid, rng)
        assert counts.sum() == 0
        # Neither record drew from the stream.
        assert rng.random() == np.random.default_rng(1).random()


class TestScenarioIntegration:
    def test_churn_concentrates_in_events(self, scenario):
        from repro.core import event_concentration

        for letter in ("E", "H", "K"):
            counts = scenario.route_changes[letter]
            assert counts.sum() > 0, letter
            assert event_concentration(
                counts, scenario.grid, scenario.event_intervals()
            ) > 0.4, letter

    def test_unattacked_letters_quiet(self, scenario):
        for letter in ("D", "L", "M"):
            assert scenario.route_changes[letter].sum() == 0
