"""Tests for Table 2 (observed sites) and Figs. 5-6 (catchments)."""

import numpy as np
import pytest

from repro.core import (
    STABILITY_THRESHOLD,
    clean_dataset,
    critical_episodes,
    observed_site_count,
    observed_sites_table,
    site_minmax,
    site_minmax_table,
    site_timeseries,
    vps_per_site,
)
from repro.util import EVENTS


@pytest.fixture(scope="module")
def cleaned(dataset):
    ds, _ = clean_dataset(dataset)
    return ds


class TestVpsPerSite:
    def test_counts_partition_successes(self, cleaned):
        obs = cleaned.letter("K")
        counts = vps_per_site(cleaned, "K")
        successes = (obs.site_idx >= 0).sum(axis=1)
        assert (counts.sum(axis=1) == successes).all()

    def test_nonnegative(self, cleaned):
        assert (vps_per_site(cleaned, "E") >= 0).all()


class TestObservedSites:
    def test_observed_at_most_deployed(self, cleaned):
        for letter in cleaned.letters:
            obs = cleaned.letter(letter)
            observed = observed_site_count(cleaned, letter)
            assert 0 < observed <= len(obs.site_codes)

    def test_big_letters_have_unobserved_sites(self, cleaned):
        # Table 2: observed < reported for the biggest letters (not
        # every site is visible from the VP population).
        table = observed_sites_table(cleaned)
        row = table.row_for("L")
        assert row[2] <= row[1]

    def test_table_has_13_letters(self, cleaned):
        table = observed_sites_table(cleaned)
        assert len(table.rows) == len(cleaned.letters)
        assert table.column("letter") == sorted(cleaned.letters)


class TestSiteMinMax:
    def test_sorted_by_median(self, cleaned):
        stats = site_minmax(cleaned, "K")
        medians = [s.median for s in stats]
        assert medians == sorted(medians, reverse=True)

    def test_k_ams_grows_k_lhr_shrinks(self, cleaned):
        # Fig. 5b: K-AMS's max rises above median while K-LHR's min
        # collapses (shifted catchments).
        stats = {s.site: s for s in site_minmax(cleaned, "K")}
        assert stats["K-AMS"].max_normalized > 1.1
        assert stats["K-LHR"].min_normalized < 0.6

    def test_stability_threshold(self, cleaned):
        stats = site_minmax(cleaned, "K")
        for s in stats:
            assert s.stable == (s.median >= STABILITY_THRESHOLD)

    def test_table_renders(self, cleaned):
        table = site_minmax_table(cleaned, "E")
        assert "Fig. 5" in table.render()


class TestSiteTimeseries:
    def test_normalised_to_median(self, cleaned):
        bundle = site_timeseries(cleaned, "K", stable_only=True)
        for series in bundle.series:
            assert np.median(series.values) == pytest.approx(1.0, abs=0.2)

    def test_stable_only_filters(self, cleaned):
        all_sites = site_timeseries(cleaned, "K", stable_only=False)
        stable = site_timeseries(cleaned, "K", stable_only=True)
        assert len(stable.series) <= len(all_sites.series)

    def test_e_withdrawers_flatline_after_second_event(self, cleaned):
        bundle = site_timeseries(cleaned, "E", stable_only=False)
        for name in bundle.names:
            if name.startswith("E-CDG"):
                series = bundle.get(name)
                # After hour 31 the site is withdrawn: zero catchment.
                tail = series.window(32.0, 48.0)
                assert tail.max() == 0.0
                break
        else:
            pytest.fail("E-CDG series missing")


class TestCriticalEpisodes:
    def test_episodes_align_with_events(self, cleaned):
        episodes = critical_episodes(cleaned, "K")
        lhr = episodes.get("K-LHR")
        assert lhr is not None
        event_mask = cleaned.grid.event_mask(EVENTS)
        # K-LHR's critical bins fall (mostly) in/after event windows.
        assert lhr[event_mask].sum() > 0

    def test_unstable_sites_excluded(self, cleaned):
        episodes = critical_episodes(cleaned, "K")
        stats = {s.site: s for s in site_minmax(cleaned, "K")}
        for site in episodes:
            assert stats[site].median >= STABILITY_THRESHOLD
