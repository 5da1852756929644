"""Edge-case tests for engine internals and scenario plumbing."""

import dataclasses

import numpy as np
import pytest

from repro import ScenarioConfig, quiet_config, simulate
from repro.scenario.engine import window_dates
from repro.util import TimeGrid, utc


class TestWindowDates:
    def test_canonical_window(self):
        grid = TimeGrid.paper_window()
        days, baseline = window_dates(grid)
        assert days == ["2015-11-30", "2015-12-01"]
        assert len(baseline) == 7
        assert baseline[0] == "2015-11-23"
        assert baseline[-1] == "2015-11-29"

    def test_june_window(self):
        grid = TimeGrid(start=utc(2016, 6, 24), bin_seconds=600,
                        n_bins=288)
        days, _ = window_dates(grid)
        assert days == ["2016-06-24", "2016-06-25"]

    @pytest.mark.parametrize(
        "n_bins, expected",
        [(216, ["2015-11-30", "2015-12-01"]), (36, ["2015-11-30"])],
        ids=["36h", "6h"],
    )
    def test_partial_day_gets_its_own_date(self, n_bins, expected):
        grid = TimeGrid(start=utc(2015, 11, 30), bin_seconds=600,
                        n_bins=n_bins)
        days, _ = window_dates(grid)
        assert days == expected

    def test_baseline_days_sets_the_baseline_length(self):
        _, baseline = window_dates(TimeGrid.paper_window(), 10)
        assert len(baseline) == 10
        assert baseline[0] == "2015-11-20"
        assert baseline[-1] == "2015-11-29"


class TestRssacDays:
    BASE = ScenarioConfig(seed=2, n_stubs=80, n_vps=50, letters=("K",),
                          include_nl=False, baseline_days=1)

    def test_36h_window_reports_its_second_day_apart(self):
        day = simulate(
            dataclasses.replace(self.BASE, window_seconds=86_400)
        )
        longer = simulate(
            dataclasses.replace(self.BASE, window_seconds=129_600)
        )
        reports = longer.rssac["K"]
        assert [r.date for r in reports] == [
            "2015-11-29", "2015-11-30", "2015-12-01",
        ]
        # Nov 30's report counts Nov 30 alone, as in a 24 h window.
        assert reports[1] == day.rssac["K"][1]

    def test_more_than_seven_baseline_days(self):
        result = simulate(
            dataclasses.replace(
                self.BASE, baseline_days=10, window_seconds=21_600
            )
        )
        dates = [r.date for r in result.rssac["K"]]
        assert dates[:10] == [f"2015-11-{d}" for d in range(20, 30)]
        assert dates[10:] == ["2015-11-30"]


class TestEventMask:
    def test_scenario_event_mask_matches_config(self):
        result = simulate(
            ScenarioConfig(seed=2, n_stubs=80, n_vps=50,
                           letters=("K",), include_nl=False)
        )
        mask = result.event_mask()
        assert mask.sum() == 22  # 160 + 60 minutes of 10-minute bins
        assert result.event_intervals()[0].seconds == 160 * 60

    def test_quiet_scenario_has_empty_mask(self):
        result = simulate(
            quiet_config(seed=2, n_stubs=80, n_vps=50,
                         letters=("K",), include_nl=False)
        )
        assert not result.event_mask().any()
        # And no policy ever fires.
        assert not result.deployments["K"].actions


class TestControllerPlumbing:
    def test_bad_controller_return_type_rejected(self):
        class BrokenController:
            def decide(self, observation):
                return ["withdraw LHR"]  # not Action objects

        with pytest.raises(TypeError):
            simulate(
                ScenarioConfig(
                    seed=2, n_stubs=80, n_vps=50, letters=("K",),
                    include_nl=False,
                    controllers={"K": BrokenController()},
                )
            )

    def test_controller_only_affects_its_letter(self):
        from repro.defense import NullController

        result = simulate(
            ScenarioConfig(
                seed=2, n_stubs=120, n_vps=60, letters=("H", "K"),
                include_nl=False,
                controllers={"K": NullController()},
            )
        )
        # K is frozen by its controller; H's static policies still run.
        assert not result.deployments["K"].actions
        h_causes = {r.cause for r in result.deployments["H"].actions}
        assert h_causes == {"policy"}

    def test_partial_and_restore_actions(self):
        from repro.defense import Action, ActionKind

        class PartialOnce:
            def __init__(self):
                self.fired = False

            def decide(self, observation):
                if not self.fired and observation.bin_index >= 42:
                    self.fired = True
                    return [
                        Action(ActionKind.PARTIAL, "LHR"),
                        Action(ActionKind.RESTORE, "FRA"),
                    ]
                return []

        result = simulate(
            ScenarioConfig(
                seed=2, n_stubs=120, n_vps=60, letters=("K",),
                include_nl=False,
                controllers={"K": PartialOnce()},
            )
        )
        assert result.deployments["K"].states["LHR"].partial


class TestTruthIntegrity:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate(
            ScenarioConfig(seed=5, n_stubs=120, n_vps=60,
                           letters=("E", "K"), include_nl=False)
        )

    def test_catchment_history_shapes(self, result):
        truth = result.truth["K"]
        n_epochs = truth.stub_site_by_epoch.shape[0]
        assert truth.stub_site_by_epoch.shape[1] == len(
            result.topology.stub_asns
        )
        assert truth.epoch_of_bin.max() < n_epochs
        assert truth.epoch_of_bin.min() >= 0

    def test_stub_site_consistent_with_catchments(self, result):
        truth = result.truth["K"]
        # Every recorded site index is valid or -1.
        assert truth.stub_site_by_epoch.max() < len(truth.site_codes)
        assert truth.stub_site_by_epoch.min() >= -1

    def test_epochs_change_with_policies(self, result):
        # K's partial withdrawals create multiple routing epochs.
        truth = result.truth["K"]
        assert len(np.unique(truth.epoch_of_bin)) >= 2

    def test_legit_conservation(self, result):
        truth = result.truth["K"]
        assert (truth.legit_served_qps <= truth.legit_offered_qps
                + 1e-6).all()
        assert (truth.legit_offered_qps >= 0).all()
