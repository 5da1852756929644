"""Tests for site specs, site state, and per-server behaviour."""

import numpy as np
import pytest

from repro.rootdns import (
    ServerBehavior,
    SitePolicy,
    SiteSpec,
    SiteState,
    hot_server_index,
    observed_servers,
    rotate_shed_server,
    server_delay_multipliers,
    server_loss_multipliers,
)


class TestSiteSpec:
    def test_capacity_is_servers_times_rate(self):
        spec = SiteSpec(code="AMS", n_servers=10, per_server_qps=100_000)
        assert spec.capacity_qps == 1_000_000

    def test_label(self):
        assert SiteSpec(code="FRA").label("K") == "K-FRA"

    def test_location_from_airport_table(self):
        spec = SiteSpec(code="AMS")
        assert 50 < spec.location.lat < 55

    def test_validation(self):
        with pytest.raises(ValueError):
            SiteSpec(code="AMST")
        with pytest.raises(ValueError):
            SiteSpec(code="AMS", n_servers=0)
        with pytest.raises(ValueError):
            SiteSpec(code="AMS", per_server_qps=0)
        with pytest.raises(ValueError):
            SiteSpec(code="AMS", withdraw_threshold=0.9)
        with pytest.raises(ValueError):
            SiteSpec(code="AMS", reannounce_limit=-1)
        with pytest.raises(ValueError):
            SiteSpec(code="AMS", n_transit_providers=0)


class TestSiteState:
    def test_unlimited_recovery(self):
        state = SiteState(SiteSpec(code="AMS"))
        state.withdrawals = 99
        assert state.may_reannounce()

    def test_limited_recovery_budget(self):
        spec = SiteSpec(
            code="AMS", policy=SitePolicy.WITHDRAW, reannounce_limit=1
        )
        state = SiteState(spec)
        state.withdrawals = 1
        assert state.may_reannounce()
        state.withdrawals = 2
        assert not state.may_reannounce()


class TestObservedServers:
    def test_balanced_by_hash(self):
        hashes = np.arange(12)
        servers = observed_servers(
            ServerBehavior.NORMAL, 3, hashes, overloaded=False, shed_server=1
        )
        assert set(servers) == {1, 2, 3}
        assert np.bincount(servers)[1:].tolist() == [4, 4, 4]

    def test_shed_to_one_collapses_under_load(self):
        # K-FRA in Fig. 12: all replies from one server per event.
        hashes = np.arange(12)
        servers = observed_servers(
            ServerBehavior.SHED_TO_ONE, 3, hashes, overloaded=True,
            shed_server=2,
        )
        assert set(servers) == {2}

    def test_shed_to_one_balanced_when_calm(self):
        hashes = np.arange(12)
        servers = observed_servers(
            ServerBehavior.SHED_TO_ONE, 3, hashes, overloaded=False,
            shed_server=2,
        )
        assert set(servers) == {1, 2, 3}

    def test_bad_shed_server_rejected(self):
        with pytest.raises(ValueError):
            observed_servers(
                ServerBehavior.SHED_TO_ONE, 3, np.arange(3),
                overloaded=True, shed_server=4,
            )

    def test_stable_assignment(self):
        hashes = np.array([5, 17, 101])
        a = observed_servers(
            ServerBehavior.NORMAL, 4, hashes, overloaded=False, shed_server=1
        )
        b = observed_servers(
            ServerBehavior.NORMAL, 4, hashes, overloaded=True, shed_server=1
        )
        assert (a == b).all()


class TestMultipliers:
    def test_uniform_when_calm(self):
        m = server_loss_multipliers(ServerBehavior.SKEWED, "NRT", 3, False)
        assert (m == 1.0).all()

    def test_skewed_has_one_hot_server(self):
        # K-NRT in Fig. 12-13: all degrade, one worse (K-NRT-S2).
        m = server_loss_multipliers(ServerBehavior.SKEWED, "NRT", 3, True)
        hot = hot_server_index("NRT", 3)
        assert hot == 1  # server 2, matching the paper
        assert m[hot] > 1.0
        assert (np.delete(m, hot) < 1.0).all()

    def test_skewed_delay_follows_load(self):
        m = server_delay_multipliers(ServerBehavior.SKEWED, "NRT", 3, True)
        hot = hot_server_index("NRT", 3)
        assert m[hot] == m.max()

    def test_shed_survivor_keeps_low_latency(self):
        # K-FRA's surviving server shows stable RTT (Fig. 13 top).
        m = server_delay_multipliers(
            ServerBehavior.SHED_TO_ONE, "FRA", 3, True
        )
        assert (m < 1.0).all()

    def test_normal_behavior_is_uniform_even_overloaded(self):
        for fn in (server_loss_multipliers, server_delay_multipliers):
            assert (fn(ServerBehavior.NORMAL, "AMS", 5, True) == 1.0).all()


class TestRotation:
    def test_rotates_through_all_servers(self):
        seen = []
        current = 1
        for _ in range(3):
            current = rotate_shed_server(current, 3)
            seen.append(current)
        assert seen == [2, 3, 1]

    def test_single_server_site(self):
        assert rotate_shed_server(1, 1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rotate_shed_server(1, 0)
        with pytest.raises(ValueError):
            hot_server_index("NRT", 0)
        with pytest.raises(ValueError):
            observed_servers(
                ServerBehavior.NORMAL, 0, np.arange(3), False, 1
            )
