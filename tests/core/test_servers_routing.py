"""Tests for Fig. 12 (per-server) and Fig. 9 (route churn) analyses."""

import numpy as np
import pytest

from repro.core import (
    answering_servers_per_bin,
    clean_dataset,
    event_concentration,
    letters_with_event_churn,
    route_change_series,
    server_reachability,
    shed_detected,
)


@pytest.fixture(scope="module")
def cleaned(dataset):
    ds, _ = clean_dataset(dataset)
    return ds


class TestServerReachability:
    def test_three_servers_at_k_fra(self, cleaned):
        fig = server_reachability(cleaned, "K", "FRA")
        assert len(fig.series) == 3

    def test_k_fra_sheds_to_one_server(self, cleaned):
        # Fig. 12 top: during each event all replies come from one
        # server.
        series = answering_servers_per_bin(cleaned, "K", "FRA")
        during = series.at_hour(8.0)
        quiet = series.at_hour(20.0)
        assert quiet == 3.0
        assert during == 1.0

    def test_k_nrt_keeps_all_servers(self, cleaned):
        # Fig. 12 bottom: all three K-NRT servers answer, degraded.
        series = answering_servers_per_bin(cleaned, "K", "NRT")
        assert series.at_hour(8.0) >= 2.0

    def test_shed_detection(self, cleaned):
        assert shed_detected(cleaned, "K", "FRA", (6.8, 9.5))
        assert not shed_detected(cleaned, "K", "NRT", (6.8, 9.5))


class TestRouteChurn:
    def test_series_bundle(self, scenario):
        fig = route_change_series(scenario.route_changes, scenario.grid)
        assert sorted(fig.names) == sorted(scenario.letters)

    def test_length_mismatch_rejected(self, scenario):
        with pytest.raises(ValueError):
            route_change_series({"K": np.zeros(5)}, scenario.grid)

    def test_event_concentration_bounds(self, scenario):
        for letter in scenario.letters:
            value = event_concentration(
                scenario.route_changes[letter], scenario.grid,
                scenario.event_intervals(),
            )
            assert 0.0 <= value <= 1.0

    def test_zero_churn_concentration(self, scenario):
        assert event_concentration(
            np.zeros(scenario.grid.n_bins), scenario.grid,
            scenario.event_intervals(),
        ) == 0.0

    def test_churning_letters_were_attacked(self, scenario):
        churners = letters_with_event_churn(
            scenario.route_changes, scenario.grid,
            scenario.event_intervals(),
        )
        assert churners, "no letter shows event churn"
        # The paper reads C, E, F, G, H, J, K off Fig. 9; at minimum
        # our withdraw/partial letters must appear.
        assert "H" in churners
        assert "K" in churners
        assert "E" in churners
        for letter in churners:
            assert letter not in ("D", "L", "M")
