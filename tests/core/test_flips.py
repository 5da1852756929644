"""Tests for site flips (Figs. 8, 10, 11)."""

import numpy as np
import pytest

from repro.core import (
    BEHAVIOR_FAILED,
    BEHAVIOR_SHIFT_RETURN,
    BEHAVIOR_SHIFT_STAY,
    BEHAVIOR_STUCK,
    BEHAVIOR_UNAFFECTED,
    behaviour_census,
    classify_behaviour,
    clean_dataset,
    count_flips,
    flip_destinations,
    flips_figure,
    vp_timelines,
)
from repro.util import EVENT_1, EVENTS


@pytest.fixture(scope="module")
def cleaned(dataset):
    ds, _ = clean_dataset(dataset)
    return ds


class TestCountFlips:
    def test_flips_burst_during_events(self, cleaned):
        series = count_flips(cleaned, "K")
        event_mask = cleaned.grid.event_mask(EVENTS)
        event_total = series.values[event_mask].sum()
        quiet_total = series.values[~event_mask].sum()
        event_bins = int(event_mask.sum())
        quiet_bins = int((~event_mask).sum())
        assert event_total / event_bins > 5 * max(
            quiet_total / quiet_bins, 0.01
        )

    def test_unattacked_letters_flip_rarely(self, cleaned):
        for letter in ("L", "M"):
            series = count_flips(cleaned, letter)
            assert series.values.sum() < 0.02 * len(cleaned.vps) * 4

    def test_single_site_letter_never_flips(self, cleaned):
        assert count_flips(cleaned, "B").values.sum() == 0

    def test_figure(self, cleaned):
        fig = flips_figure(cleaned, ["E", "K"])
        assert fig.names == ["E", "K"]


class TestFlipDestinations:
    def test_k_lhr_shifters_mostly_land_on_ams(self, cleaned):
        # Fig. 10: 70-80 % of VPs leaving K-LHR/K-FRA go to K-AMS.
        dest = flip_destinations(cleaned, "K", "LHR", (6.8, 9.5))
        moved = {
            site: count
            for site, count in dest.items()
            if site not in ("(no reply)",) and "stuck" not in site
        }
        assert moved, "nobody moved"
        total_moved = sum(moved.values())
        assert moved.get("K-AMS", 0) / total_moved > 0.6

    def test_some_vps_stuck_at_origin(self, cleaned):
        dest = flip_destinations(cleaned, "K", "LHR", (6.8, 9.5))
        assert dest.get("K-LHR (stuck)", 0) > 0

    def test_bad_interval_raises(self, cleaned):
        with pytest.raises(ValueError):
            flip_destinations(cleaned, "K", "LHR", (-5.0, 0.0))


class TestClassification:
    def test_failed(self):
        during = np.array([-1, -1, -1])
        after = np.array([0, 0])
        assert classify_behaviour(0, during, after) == BEHAVIOR_FAILED

    def test_stuck(self):
        during = np.array([0, -1, 0, -1])
        after = np.array([0, 0])
        assert classify_behaviour(0, during, after) == BEHAVIOR_STUCK

    def test_unaffected(self):
        during = np.array([0, 0, 0])
        after = np.array([0])
        assert classify_behaviour(0, during, after) == BEHAVIOR_UNAFFECTED

    def test_shift_and_return(self):
        during = np.array([0, 1, 1])
        after = np.array([0, 0, 0])
        assert classify_behaviour(0, during, after) == (
            BEHAVIOR_SHIFT_RETURN
        )

    def test_shift_and_stay(self):
        during = np.array([1, 1])
        after = np.array([1, 1, 1])
        assert classify_behaviour(0, during, after) == BEHAVIOR_SHIFT_STAY


class TestTimelines:
    def test_timelines_cover_fig11_groups(self, cleaned):
        timelines = vp_timelines(
            cleaned, "K", ["LHR", "FRA"], event=EVENT_1
        )
        assert timelines, "no VPs start at K-LHR/K-FRA"
        census = behaviour_census(timelines)
        # The dominant groups of Fig. 11: shifters and stuck VPs.
        assert census.get(BEHAVIOR_SHIFT_RETURN, 0) > 0
        assert census.get(BEHAVIOR_STUCK, 0) > 0

    def test_sampling(self, cleaned):
        timelines = vp_timelines(
            cleaned, "K", ["LHR", "FRA"], EVENT_1, sample=10,
            rng=np.random.default_rng(0),
        )
        assert len(timelines) <= 10

    def test_timeline_shape(self, cleaned):
        timelines = vp_timelines(cleaned, "K", ["LHR"], EVENT_1, sample=3)
        for timeline in timelines:
            assert len(timeline.sites) == cleaned.grid.n_bins
            assert timeline.origin_site == "LHR"
