"""Pool cells come home as records and are rebuilt on the parent's
substrate.

A pool worker whose cell shares its substrate signature with another
cell sends a :class:`~repro.scenario.engine.ResultRecord` (what the
run produced, without the substrate) instead of the whole result; the
sweep parent puts it back on the substrate it built and kept for that
signature.  The rebuilt result must equal a serial run's in every
output and in each letter's run state, and results of one signature
must share the parent's substrate, as serial results do.
"""

import io
import os
import pickle
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.attack.botnet import Botnet
from repro.bgpmon.collector import BgpCollectors
from repro.datasets.observations import VantagePointTable
from repro.netsim.anycast import AnycastPrefix
from repro.netsim.asgraph import ASGraph, CompiledGraph
from repro.netsim.bgp import RoutingTable
from repro.netsim.topology import Topology
from repro.rootdns.deployment import ActionKind, LetterDeployment
from repro.rootdns.facility import FacilityRegistry
from repro.rootdns.letters import LetterSpec
from repro.rootdns.sites import SiteSpec, SiteState
from repro.scenario import ScenarioConfig, ScenarioResult, Substrate
from repro.scenario import engine
from repro.scenario.engine import (
    RESULT_SUBSTRATE_FIELDS,
    ResultRecord,
    build_substrate,
    simulate,
    substrate_constant_arrays,
)
from repro.sweep import SweepSpec, run_sweep

from .runs import assert_same_run

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

from check_determinism import FAULT_PLAN  # noqa: E402

#: Types only a substrate holds; no record may carry one.
SUBSTRATE_TYPES = (
    Substrate, Topology, ASGraph, CompiledGraph, FacilityRegistry,
    Botnet, BgpCollectors, VantagePointTable, LetterSpec, SiteSpec,
    SiteState, LetterDeployment, AnycastPrefix, RoutingTable,
)


@pytest.fixture(scope="module")
def config():
    # H brings a standby site, K partial withdrawals, the plan site
    # failures, session resets and an RSSAC outage; .nl is on.
    return ScenarioConfig(
        seed=7, n_stubs=50, n_vps=30, letters=("H", "K"),
        include_nl=True, faults=FAULT_PLAN,
    )


@pytest.fixture(scope="module")
def substrate(config):
    return build_substrate(config)


@pytest.fixture(scope="module")
def result(config, substrate):
    return simulate(config, substrate)


class TestSplit:
    def test_every_result_field_is_carried_or_from_the_substrate(self):
        result_fields = {f.name for f in fields(ScenarioResult)}
        carried = {f.name for f in fields(ResultRecord)}
        owned = set(RESULT_SUBSTRATE_FIELDS)
        assert not carried & owned
        assert carried | owned == result_fields

    def test_record_pickle_reaches_no_substrate_object(
        self, result, substrate
    ):
        owned = [array for _, array in substrate_constant_arrays(substrate)]
        for deployment in substrate.deployments.values():
            owned += [
                deployment.site_order, deployment.site_index,
                deployment.site_labels, deployment.host_asns,
                deployment.prefix._cache,
            ]
        reached = []

        class Watcher(pickle.Pickler):
            def persistent_id(self, obj):
                reached.append(obj)
                return None

        Watcher(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(
            ResultRecord.of(result)
        )
        assert reached
        assert [o for o in reached if isinstance(o, SUBSTRATE_TYPES)] == []
        containers = [
            o for o in reached if isinstance(o, (np.ndarray, list, dict))
        ]
        assert not [o for o in containers if any(o is x for x in owned)]


class TestRoundTrip:
    def test_pickled_record_rebuilds_the_result(self, result, substrate):
        record = pickle.loads(pickle.dumps(ResultRecord.of(result)))
        rebuilt = record.to_result(substrate)
        assert_same_run(rebuilt, result)
        assert rebuilt.topology is result.topology
        assert rebuilt.atlas.vps is result.atlas.vps
        for letter in result.letters:
            assert (
                rebuilt.deployments[letter].spec
                is substrate.deployments[letter].spec
            )

    def test_final_announcement_state_survives(self, config, substrate):
        # Runs usually end with every site back in its normal state;
        # leave one withdrawn and one partially withdrawn instead.
        result = simulate(config, substrate)
        deployment = result.deployments["K"]
        withdrawn, partial = deployment.site_order[:2]
        assert deployment.act(withdrawn, ActionKind.WITHDRAW, 0.0, "fault")
        assert deployment.act(partial, ActionKind.PARTIAL, 0.0, "fault")
        record = pickle.loads(pickle.dumps(ResultRecord.of(result)))
        rebuilt = record.to_result(substrate)
        assert_same_run(rebuilt, result)
        assert (
            rebuilt.deployments["K"].prefix.state_key()
            != substrate.deployments["K"].prefix.state_key()
        )

    def test_rebuild_leaves_the_substrate_as_built(self, result, substrate):
        before = {
            letter: dep.run_state()
            for letter, dep in substrate.deployments.items()
        }
        ResultRecord.of(result).to_result(substrate)
        assert {
            letter: dep.run_state()
            for letter, dep in substrate.deployments.items()
        } == before

    def test_other_substrate_refused(self, result):
        other = build_substrate(
            ScenarioConfig(
                seed=8, n_stubs=50, n_vps=30, letters=("H", "K"),
                include_nl=True,
            )
        )
        with pytest.raises(ValueError, match="signatures differ"):
            ResultRecord.of(result).to_result(other)

    def test_run_state_of_another_letter_refused(self, result, substrate):
        state = result.deployments["H"].run_state()
        with pytest.raises(ValueError):
            substrate.deployments["K"].snapshot(state)


@pytest.fixture(scope="module")
def spec(tiny_base):
    # Cells 0 and 1 share a substrate; cell 2 (another VP count) is
    # the only cell of its signature.
    return SweepSpec.from_points(
        tiny_base,
        [{"baseline_days": 3}, {"baseline_days": 7}, {"n_vps": 25}],
    )


@pytest.fixture(scope="module")
def serial(spec):
    return run_sweep(spec, jobs=1)


class TestPoolResults:
    @pytest.mark.parametrize("shm", [True, False])
    def test_pool_equals_serial_and_shares_the_parent_substrate(
        self, spec, serial, shm
    ):
        pooled = run_sweep(spec, jobs=2, chunk_size=1, shm=shm)
        assert not pooled.failures
        for got, want in zip(pooled.results, serial.results):
            assert_same_run(got, want)
        first, second, single = pooled.results
        for name in RESULT_SUBSTRATE_FIELDS:
            assert getattr(first, name) is getattr(second, name)
            assert getattr(single, name) is not getattr(first, name)
        assert first.atlas.vps is second.atlas.vps
        for letter in first.letters:
            assert (
                first.deployments[letter].prefix._cache
                is second.deployments[letter].prefix._cache
            )
            assert (
                first.deployments[letter] is not second.deployments[letter]
            )
        assert pooled.shm_segments == (1 if shm else 0)

    def test_failed_parent_build_ships_whole(
        self, spec, serial, monkeypatch
    ):
        parent = os.getpid()
        real = engine.build_substrate

        def build(config):
            if os.getpid() == parent:
                raise RuntimeError("parent-side build failed")
            return real(config)

        monkeypatch.setattr(engine, "build_substrate", build)
        pooled = run_sweep(spec, jobs=2, chunk_size=1, shm=True)
        assert not pooled.failures
        assert pooled.shm_segments == 0
        for got, want in zip(pooled.results, serial.results):
            assert_same_run(got, want)
        first, second, _ = pooled.results
        assert first.topology is not second.topology
