"""Substrate reuse must be bit-identical to a fresh build.

The sweep engine's per-worker cache rests entirely on this contract:
``simulate(config, substrate)`` on a substrate that already ran
produces exactly the outputs of ``simulate(config)`` -- including
policy churn, standby activation, BGP route changes, and fault
resolution -- because a run works on copies of the deployments and
leaves the substrate as built.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.faults import FaultPlan, SiteFailure
from repro.netsim import anycast
from repro.netsim.anycast import AnycastPrefix
from repro.netsim.bgp import RoutingTable
from repro.scenario import (
    ScenarioConfig,
    build_substrate,
    diff_arrays,
    result_arrays,
    simulate,
    substrate_signature,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

from check_determinism import controlled_config, faulted_config  # noqa: E402


@pytest.fixture(scope="module")
def config():
    # H brings a standby site (a reused substrate must still hold it
    # withdrawn), and K's site hosts join the graph after H's; K brings
    # partial withdrawal churn.
    return ScenarioConfig(
        seed=11, n_stubs=60, n_vps=30, letters=("H", "K"),
        include_nl=True,
    )


@pytest.fixture(scope="module")
def fresh(config):
    return result_arrays(simulate(config))


class TestSubstrateReuse:
    def test_first_use_matches_fresh_build(self, config, fresh):
        substrate = build_substrate(config)
        assert not diff_arrays(
            fresh, result_arrays(simulate(config, substrate))
        )

    def test_reuse_after_full_run_matches(self, config, fresh):
        substrate = build_substrate(config)
        simulate(config, substrate)  # dirty every mutable piece
        assert not diff_arrays(
            fresh, result_arrays(simulate(config, substrate))
        )

    def test_reuse_with_faults_matches(self, config):
        plan = FaultPlan(
            specs=(
                SiteFailure(
                    letter="K", site="AMS",
                    start=config.window_start + 12 * 3600,
                    duration_s=2 * 3600, severity=1.0,
                ),
            )
        )
        faulted = dataclasses.replace(config, faults=plan)
        standalone = simulate(faulted)
        substrate = build_substrate(faulted)
        simulate(faulted, substrate)
        again = simulate(faulted, substrate)
        assert not diff_arrays(
            result_arrays(standalone), result_arrays(again)
        )
        assert standalone.quality == again.quality

    def test_run_knobs_share_a_signature(self, config):
        # Fields the substrate does not depend on (events, window,
        # faults, controllers) leave the signature unchanged...
        quiet = dataclasses.replace(
            config, events=(), baseline_days=3
        )
        assert substrate_signature(quiet) == substrate_signature(config)

    def test_substrate_knobs_change_the_signature(self, config):
        for override in ({"seed": 12}, {"n_stubs": 61},
                         {"letters": ("K",)}, {"include_nl": False}):
            other = dataclasses.replace(config, **override)
            assert (
                substrate_signature(other) != substrate_signature(config)
            ), override

    def test_mismatched_substrate_rejected(self, config):
        substrate = build_substrate(config)
        other = dataclasses.replace(config, seed=12)
        with pytest.raises(ValueError, match="different scenario"):
            simulate(other, substrate)

    def test_run_knob_change_reuses_substrate(self, config, fresh):
        # A config differing only in run knobs may reuse the substrate
        # and still matches its own fresh build.
        substrate = build_substrate(config)
        quiet = dataclasses.replace(config, events=())
        via_substrate = result_arrays(simulate(quiet, substrate))
        assert not diff_arrays(
            result_arrays(simulate(quiet)), via_substrate
        )
        # ... and the substrate still reproduces the original config.
        assert not diff_arrays(
            fresh, result_arrays(simulate(config, substrate))
        )


class TestRunLeavesSubstrateUntouched:
    @pytest.mark.parametrize(
        "make_config",
        [faulted_config, controlled_config],
        ids=["faulted", "controlled"],
    )
    def test_deployments_stay_as_built(self, make_config):
        substrate = build_substrate(make_config())
        result = simulate(make_config(), substrate)
        assert all(result.deployments[L].actions for L in ("H", "K"))
        built = build_substrate(make_config()).deployments
        for letter, ran in substrate.deployments.items():
            fresh = built[letter]
            assert ran is not result.deployments[letter]
            assert (
                ran.prefix.announced_sites()
                == fresh.prefix.announced_sites()
            )
            for code in fresh.site_order:
                assert ran.prefix.blocked_neighbors(
                    code
                ) == fresh.prefix.blocked_neighbors(code), (letter, code)
            assert ran.states == fresh.states, letter
            assert ran.actions == fresh.actions == [], letter


class TestRoutingCacheBound:
    @pytest.mark.parametrize(
        "make_config",
        [faulted_config, controlled_config],
        ids=["faulted", "controlled"],
    )
    def test_one_entry_routing_caches_change_no_output(self, make_config):
        """Every letter's routing-table LRU cut to one entry: each
        revisited announcement state is evicted and recomputed as a
        new table object, and no output array may notice -- routing
        epochs are numbered per announcement state."""
        default = result_arrays(simulate(make_config()))
        substrate = build_substrate(make_config())
        for deployment in substrate.deployments.values():
            deployment.prefix._cache_size = 1
            deployment.prefix._cache.clear()
        bounded = result_arrays(simulate(make_config(), substrate))
        assert not diff_arrays(default, bounded)
        assert all(
            len(d.prefix._cache) == 1
            for d in substrate.deployments.values()
        )


class TestRoutingOnFinishedGraph:
    """Nothing routes while the substrate graph still grows."""

    def test_build_runs_no_propagation(self, config, monkeypatch):
        calls = []
        propagate = anycast.propagate

        def counting(graph, origins):
            calls.append(origins)
            return propagate(graph, origins)

        monkeypatch.setattr(anycast, "propagate", counting)
        build_substrate(config)
        assert calls == []

    def test_every_table_sits_on_the_finished_graph(
        self, config, monkeypatch
    ):
        read, diffed = [], []
        routing = AnycastPrefix.routing
        changes_from = RoutingTable.changes_from

        def recording_routing(prefix):
            table = routing(prefix)
            read.append(table)
            return table

        def recording_changes_from(table, previous):
            diffed.extend((table, previous))
            return changes_from(table, previous)

        monkeypatch.setattr(AnycastPrefix, "routing", recording_routing)
        monkeypatch.setattr(
            RoutingTable, "changes_from", recording_changes_from
        )
        result = simulate(config)
        assert read and diffed
        compiled = result.topology.graph.compiled()
        for table in read + diffed:
            assert table._arrays.compiled is compiled


class TestLargeStubCounts:
    def test_more_stubs_than_the_stub_asn_range_builds(self):
        # Stub ASNs count up from 10,000 and site hosts from 20,000 at
        # the lowest: the 10,001st stub is AS 20,000.
        topology = build_substrate(
            ScenarioConfig(seed=0, n_stubs=10_001, n_vps=20, letters=("K",))
        ).topology
        assert len(topology.stub_asns) == 10_001
        hosts = set(topology.site_host_asns.values())
        assert not hosts & set(topology.stub_asns)
