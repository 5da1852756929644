"""Tests for botnet placement, events, and the baseline workload."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attack import (
    DEC1_EVENT,
    NOV2015_EVENTS,
    NOV30_EVENT,
    AttackEvent,
    BaselineWorkload,
    Botnet,
    BotnetConfig,
    active_event,
    attack_rate,
    build_botnet,
    expected_unique_sources,
    legit_shares_by_site,
    retry_spill,
)
from repro.netsim import TopologyConfig, build_topology
from repro.rootdns import ActionKind, FacilityRegistry, build_deployments
from repro.util import EVENT_1, EVENT_2, Interval, utc


@pytest.fixture(scope="module")
def topo():
    return build_topology(TopologyConfig(n_stubs=300),
                          np.random.default_rng(3))


@pytest.fixture(scope="module")
def deployments(topo):
    return build_deployments(topo, FacilityRegistry())


class TestEvents:
    def test_nov30_parameters_match_paper(self):
        assert NOV30_EVENT.qname == "www.336901.com."
        assert NOV30_EVENT.interval == EVENT_1
        assert NOV30_EVENT.query_wire_bytes == 84
        assert NOV30_EVENT.rate_qps == pytest.approx(5.0e6)

    def test_dec1_parameters_match_paper(self):
        assert DEC1_EVENT.qname == "www.916yy.com."
        assert DEC1_EVENT.interval == EVENT_2
        assert DEC1_EVENT.query_wire_bytes == 85

    def test_d_l_m_never_targeted(self):
        for event in NOV2015_EVENTS:
            assert set("DLM").isdisjoint(event.targets)

    def test_rate_zero_outside_window(self):
        before = utc(2015, 11, 30, 6, 0)
        assert attack_rate(NOV2015_EVENTS, "K", before) == 0.0
        during = utc(2015, 11, 30, 7, 0)
        assert attack_rate(NOV2015_EVENTS, "K", during) == pytest.approx(5e6)
        assert attack_rate(NOV2015_EVENTS, "L", during) == 0.0

    def test_active_event(self):
        assert active_event(NOV2015_EVENTS, utc(2015, 11, 30, 7, 0)) is (
            NOV30_EVENT
        )
        assert active_event(NOV2015_EVENTS, utc(2015, 12, 1, 5, 30)) is (
            DEC1_EVENT
        )
        assert active_event(NOV2015_EVENTS, utc(2015, 11, 30, 20, 0)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackEvent("x", Interval(0, 1), "q.", 0.0, ("K",), 84)
        with pytest.raises(ValueError):
            AttackEvent("x", Interval(0, 1), "q.", 1.0, (), 84)
        with pytest.raises(ValueError):
            AttackEvent("x", Interval(0, 1), "q.", 1.0, ("K", "K"), 84)


class TestBotnet:
    def test_weights_normalised(self):
        net = Botnet(np.array([1, 2, 3]), np.array([2.0, 2.0, 4.0]))
        assert net.weights.sum() == pytest.approx(1.0)
        assert net.weights[2] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Botnet(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            Botnet(np.array([1]), np.array([-1.0]))
        with pytest.raises(ValueError):
            Botnet(np.array([1, 2]), np.array([1.0]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BotnetConfig(hotspots={"LHR": 1.5})
        with pytest.raises(ValueError):
            BotnetConfig(zipf_alpha=1.0)
        with pytest.raises(ValueError):
            BotnetConfig(n_tail_clusters=0)

    def test_build_is_deterministic(self, topo):
        config = BotnetConfig()
        a = build_botnet(topo, config, np.random.default_rng(1))
        b = build_botnet(topo, config, np.random.default_rng(1))
        assert (a.asns == b.asns).all()
        assert np.allclose(a.weights, b.weights)

    def test_hotspot_sites_carry_the_bulk(self, topo, deployments):
        config = BotnetConfig()
        net = build_botnet(topo, config, np.random.default_rng(1))
        shares = net.load_shares_by_site(deployments["K"].routing())
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.02)
        # The K sites at/near hotspot metros take most of the volume.
        hot = sum(
            shares.get(code, 0.0)
            for code in ("LHR", "FRA", "AMS", "NRT", "MIA", "PAO", "MKC")
        )
        assert hot > 0.5

    def test_withdrawal_moves_bot_load(self, topo, deployments):
        net = build_botnet(topo, BotnetConfig(), np.random.default_rng(1))
        k = deployments["K"].snapshot()
        before = net.load_shares_by_site(k.routing())
        k.act("LHR", ActionKind.PARTIAL, 1.0, "controller")
        after = net.load_shares_by_site(k.routing())
        assert after.get("LHR", 0.0) < before.get("LHR", 0.0)
        assert after.get("AMS", 0.0) > before.get("AMS", 0.0)


class TestUniqueSources:
    def test_zero_queries(self):
        assert expected_unique_sources(0, 2**31) == 0.0

    def test_small_counts_nearly_all_distinct(self):
        distinct = expected_unique_sources(1e6, 2**31)
        assert distinct == pytest.approx(1e6, rel=0.01)

    def test_saturates_at_pool_size(self):
        distinct = expected_unique_sources(1e12, 2**31)
        assert distinct == pytest.approx(2**31, rel=0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_unique_sources(-1, 10)
        with pytest.raises(ValueError):
            expected_unique_sources(1, 0)

    @given(q=st.floats(min_value=0, max_value=1e13))
    def test_monotone_and_bounded(self, q):
        pool = 2**31
        distinct = expected_unique_sources(q, pool)
        assert 0 <= distinct <= pool
        assert distinct <= q + 1e-6 or q > pool


class TestWorkload:
    def test_diurnal_cycle_peaks_at_configured_hour(self):
        wl = BaselineWorkload(base_qps=40_000, peak_utc_hour=14.0)
        peak = wl.rate_at(utc(2015, 11, 30, 14, 0))
        trough = wl.rate_at(utc(2015, 11, 30, 2, 0))
        assert peak > trough
        assert peak == pytest.approx(40_000 * 1.15)

    def test_vectorised_matches_scalar(self):
        wl = BaselineWorkload(base_qps=40_000)
        times = np.array(
            [utc(2015, 11, 30, h, 0) for h in (0, 6, 12, 18)],
            dtype=np.float64,
        )
        vec = wl.rates_at(times)
        for i, t in enumerate(times):
            assert vec[i] == pytest.approx(wl.rate_at(t))

    def test_validation(self):
        with pytest.raises(ValueError):
            BaselineWorkload(base_qps=-1)
        with pytest.raises(ValueError):
            BaselineWorkload(base_qps=1, diurnal_amplitude=1.5)

    def test_legit_shares_partition(self, topo, deployments):
        shares = legit_shares_by_site(
            deployments["L"].routing(), topo.stub_asns
        )
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_legit_shares_need_stubs(self, deployments):
        with pytest.raises(ValueError):
            legit_shares_by_site(deployments["L"].routing(), [])


class TestRetrySpill:
    def test_losses_spread_to_other_letters(self):
        letters = list("ABCDEFGHIJKLM")
        extra = retry_spill({"B": 13_000.0}, letters)
        assert extra["B"] == 0.0
        # 80 % of the lost load spread over the 12 other letters.
        assert extra["L"] == pytest.approx(13_000 * 0.8 / 12)

    def test_multiple_sources_accumulate(self):
        letters = ["A", "B", "C"]
        extra = retry_spill({"A": 100.0, "B": 100.0}, letters)
        assert extra["C"] == pytest.approx(2 * 100 * 0.8 / 2)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            retry_spill({"A": -1.0}, ["A", "B"])

    def test_prebuilt_targets_match_fresh(self):
        # The engine builds the retry targets once per run and passes
        # them in; that must equal building them per call.
        from repro.attack.workload import retry_targets

        letters = list("ABCDE")
        lost = {"A": 50.0, "C": 10.0}
        targets = retry_targets(letters)
        assert targets["C"] == ["A", "B", "D", "E"]
        fresh = retry_spill(lost, letters)
        assert retry_spill(lost, letters, targets) == fresh
        assert retry_spill(lost, letters, targets) == fresh
