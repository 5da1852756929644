"""Tests for Fig. 3 (reachability) and Figs. 4/7/13 (RTT) analyses."""

import numpy as np
import pytest

from repro.core import (
    clean_dataset,
    letter_reachability,
    letter_rtt_series,
    reachability_figure,
    rtt_figure,
    rtt_significantly_changed,
    server_rtt_series,
    site_rtt_figure,
    site_rtt_series,
    worst_responsiveness,
)


@pytest.fixture(scope="module")
def cleaned(dataset):
    ds, _ = clean_dataset(dataset)
    return ds


class TestReachability:
    def test_series_shape(self, cleaned):
        series = letter_reachability(cleaned, "K")
        assert series.values.shape == (cleaned.grid.n_bins,)
        assert (series.values >= 0).all()

    def test_b_root_dips_hard_during_events(self, cleaned):
        series = letter_reachability(cleaned, "B")
        during = series.at_hour(8.0)
        quiet = series.at_hour(20.0)
        assert during < 0.35 * quiet

    def test_unattacked_letters_flat(self, cleaned):
        for letter in ("D", "L", "M"):
            assert worst_responsiveness(cleaned, letter) > 0.9

    def test_worst_ordering_matches_paper(self, cleaned):
        # B (unicast) suffered most, then H (pri/backup); letters with
        # many sites barely dipped (section 3.2.1).
        worst = {
            letter: worst_responsiveness(cleaned, letter)
            for letter in "BHKL"
        }
        assert worst["B"] < worst["K"]
        assert worst["H"] < worst["K"]
        assert worst["K"] < worst["L"]

    def test_a_root_scaling_compensates_sampling(self, cleaned):
        scaled = letter_reachability(cleaned, "A", scale_undersampled=True)
        raw = letter_reachability(cleaned, "A", scale_undersampled=False)
        # Scaled A counts approach the full VP population.
        assert scaled.median() > 2.5 * raw.median()
        assert scaled.median() == pytest.approx(
            len(cleaned.vps), rel=0.15
        )

    def test_figure_bundle(self, cleaned):
        figure = reachability_figure(cleaned, ["B", "K"])
        assert figure.names == ["B", "K"]
        rendered = figure.render()
        assert "Fig. 3" in rendered
        assert "B" in rendered


class TestLetterRtt:
    def test_h_root_rtt_steps_up_during_failover(self, cleaned):
        # H's primary (US east) withdraws; mostly-EU VPs reach the
        # west-coast backup at higher RTT (Fig. 4).
        series = letter_rtt_series(cleaned, "H")
        during = series.at_hour(8.0)
        quiet = series.at_hour(20.0)
        assert during > quiet + 30.0

    def test_b_root_rtt_stable_for_survivors(self, cleaned):
        # B kept one site; successful queries keep their RTT (Fig. 4).
        series = letter_rtt_series(cleaned, "B")
        during = series.at_hour(8.0)
        quiet = series.at_hour(20.0)
        assert abs(during - quiet) < 0.35 * quiet

    def test_significance_filter(self, cleaned):
        assert rtt_significantly_changed(cleaned, "K")
        assert not rtt_significantly_changed(cleaned, "L")

    def test_figure(self, cleaned):
        fig = rtt_figure(cleaned, ["B", "G", "H", "K"])
        assert len(fig.series) == 4


class TestSiteRtt:
    def test_k_ams_shows_bufferbloat(self, cleaned):
        # Fig. 7: K-AMS goes from tens of ms to over a second.
        series = site_rtt_series(cleaned, "K", "AMS")
        quiet = series.at_hour(20.0)
        peak = np.nanmax(series.values)
        assert quiet < 150.0
        assert peak > 800.0

    def test_site_figure(self, cleaned):
        fig = site_rtt_figure(cleaned, "K", ["AMS", "NRT"])
        assert fig.names == ["K-AMS", "K-NRT"]


class TestServerRtt:
    def test_per_server_series_exist(self, cleaned):
        fig = server_rtt_series(cleaned, "K", "NRT")
        assert len(fig.series) == 3  # K-NRT runs three servers
        assert all(name.startswith("K-NRT-S") for name in fig.names)

    def test_hot_server_slower_under_load(self, cleaned):
        # Fig. 13 bottom: K-NRT-S2 queues deeper than its siblings.
        fig = server_rtt_series(cleaned, "K", "NRT")
        hot = fig.get("K-NRT-S2")
        cool = fig.get("K-NRT-S1")
        hour = 8.0
        assert hot.at_hour(hour) > cool.at_hour(hour)
