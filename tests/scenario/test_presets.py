"""Tests for scenario presets, including the June 2016 follow-up."""

import pytest

from repro import june2016_config, nov2015_config, simulate
from repro.core import worst_responsiveness
from repro.scenario import JUNE2016_EVENT
from repro.util import EVENT_WINDOW_START, utc


class TestPresets:
    def test_nov2015_is_default(self):
        config = nov2015_config(seed=1)
        assert config.window_start == EVENT_WINDOW_START
        assert config.events[0].qname == "www.336901.com."

    def test_june2016_window_and_event(self):
        config = june2016_config(seed=1)
        assert config.window_start == utc(2016, 6, 24)
        assert config.events == (JUNE2016_EVENT,)
        assert JUNE2016_EVENT.rate_qps == pytest.approx(10e6)
        # Broader targeting than Nov 2015 (D still spared here; L and
        # M are not targeted either).
        assert "D" not in JUNE2016_EVENT.targets

    def test_overrides_pass_through(self):
        config = june2016_config(seed=9, n_vps=123)
        assert config.seed == 9
        assert config.n_vps == 123

    def test_grid_covers_event(self):
        config = june2016_config(seed=1)
        grid = config.grid()
        bins = grid.bins_overlapping(JUNE2016_EVENT.interval)
        assert bins.size == 15  # 150 minutes of 10-minute bins


class TestJune2016Scenario:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate(
            june2016_config(
                seed=3, n_stubs=200, n_vps=250,
                letters=("B", "K", "L"), include_nl=False,
            )
        )

    def test_same_choices_different_details(self, result):
        # Section 2.3: subsequent events "pose the same operational
        # choices".  Higher rate -> deeper dips for attacked letters.
        ds = result.atlas
        assert worst_responsiveness(ds, "B") < 0.2
        assert worst_responsiveness(ds, "K") < 0.9
        assert worst_responsiveness(ds, "L") > 0.9

    def test_event_mask_matches_scenario(self, result):
        mask = result.event_mask()
        assert mask.sum() == 15
        grid = result.grid
        assert mask[grid.bin_index(JUNE2016_EVENT.interval.start)]

    def test_rssac_dates_follow_window(self, result):
        dates = [r.date for r in result.rssac["K"]]
        assert dates[-2:] == ["2016-06-24", "2016-06-25"]

    def test_policies_still_fire(self, result):
        log = [(r.site, r.action.value) for r in
               result.deployments["K"].actions if r.cause == "policy"]
        assert ("LHR", "partial") in log
