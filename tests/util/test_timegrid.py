"""Tests for the time grid and event-window constants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    EVENT_1,
    EVENT_2,
    EVENT_WINDOW_SECONDS,
    EVENT_WINDOW_START,
    EVENTS,
    Interval,
    TimeGrid,
    utc,
)


class TestEventConstants:
    def test_window_starts_nov_30(self):
        assert EVENT_WINDOW_START == utc(2015, 11, 30)

    def test_first_event_is_160_minutes(self):
        assert EVENT_1.seconds == 160 * 60

    def test_second_event_is_60_minutes(self):
        assert EVENT_2.seconds == 60 * 60

    def test_events_fall_inside_window(self):
        window = Interval(
            EVENT_WINDOW_START, EVENT_WINDOW_START + EVENT_WINDOW_SECONDS
        )
        for event in (EVENT_1, EVENT_2):
            assert window.contains(event.start)
            assert window.contains(event.end - 1)

    def test_event_hours_match_paper_figures(self):
        # Figures 5-11 place events at ~hour 7 and ~hour 29.
        start1, _ = EVENT_1.hours_after(EVENT_WINDOW_START)
        start2, _ = EVENT_2.hours_after(EVENT_WINDOW_START)
        assert start1 == pytest.approx(6.833, abs=0.01)
        assert start2 == pytest.approx(29.167, abs=0.01)


class TestInterval:
    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            Interval(10, 5)

    def test_contains_is_half_open(self):
        interval = Interval(0, 10)
        assert interval.contains(0)
        assert interval.contains(9.999)
        assert not interval.contains(10)

    def test_overlaps(self):
        assert Interval(0, 10).overlaps(Interval(9, 20))
        assert not Interval(0, 10).overlaps(Interval(10, 20))
        assert Interval(5, 6).overlaps(Interval(0, 100))


class TestTimeGrid:
    def test_paper_window_has_288_ten_minute_bins(self):
        grid = TimeGrid.paper_window()
        assert grid.n_bins == 288
        assert grid.bin_seconds == 600

    def test_paper_window_rejects_nontiling_bins(self):
        with pytest.raises(ValueError):
            TimeGrid.paper_window(bin_seconds=7 * 60)

    def test_bin_index_boundaries(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        assert grid.bin_index(0) == 0
        assert grid.bin_index(599.9) == 0
        assert grid.bin_index(600) == 1
        assert grid.bin_index(1799) == 2

    def test_bin_index_rejects_out_of_grid(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        with pytest.raises(ValueError):
            grid.bin_index(-1)
        with pytest.raises(ValueError):
            grid.bin_index(1800)

    def test_bin_indices_vectorised_matches_scalar(self):
        grid = TimeGrid(start=100, bin_seconds=60, n_bins=10)
        times = np.array([100, 159, 160, 699])
        expected = [grid.bin_index(t) for t in times]
        assert grid.bin_indices(times).tolist() == expected

    def test_bin_interval_roundtrip(self):
        grid = TimeGrid(start=50, bin_seconds=600, n_bins=5)
        for i in range(grid.n_bins):
            interval = grid.bin_interval(i)
            assert grid.bin_index(interval.start) == i
            assert grid.bin_index(interval.end - 1) == i

    def test_bin_interval_rejects_bad_index(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=5)
        with pytest.raises(IndexError):
            grid.bin_interval(5)
        with pytest.raises(IndexError):
            grid.bin_start(-1)

    def test_hours_axis(self):
        grid = TimeGrid(start=0, bin_seconds=3600, n_bins=4)
        assert grid.hours().tolist() == [0.5, 1.5, 2.5, 3.5]

    def test_bins_overlapping_partial(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=10)
        bins = grid.bins_overlapping(Interval(550, 1250))
        assert bins.tolist() == [0, 1, 2]

    def test_bins_overlapping_empty_outside(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=2)
        assert grid.bins_overlapping(Interval(5000, 6000)).size == 0

    def test_event_mask_covers_events(self):
        grid = TimeGrid.paper_window()
        mask = grid.event_mask(EVENTS)
        assert mask[grid.bin_index(EVENT_1.start)]
        assert mask[grid.bin_index(EVENT_2.start)]
        assert mask.sum() == pytest.approx((160 + 60) / 10, abs=2)
        # Bin at hour 20 is quiet.
        assert not mask[120]

    def test_event_mask_skips_intervals_outside_the_window(self):
        grid = TimeGrid(start=6000, bin_seconds=600, n_bins=6)
        inside = Interval(6500, 7200)
        mask = grid.event_mask((inside,))
        assert mask.tolist() == [True, True, False, False, False, False]
        before, after = Interval(0, 3000), Interval(9600, 12000)
        assert grid.event_mask((before, inside, after)).tolist() == (
            mask.tolist()
        )
        # The paper's second event lies past a six-hour window.
        short = TimeGrid(start=EVENT_1.start - 3600, bin_seconds=600,
                         n_bins=36)
        assert short.event_mask(EVENTS).sum() == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(start=0, bin_seconds=0, n_bins=1)
        with pytest.raises(ValueError):
            TimeGrid(start=0, bin_seconds=60, n_bins=0)

    @given(
        start=st.integers(min_value=0, max_value=10**9),
        bin_seconds=st.integers(min_value=1, max_value=7200),
        n_bins=st.integers(min_value=1, max_value=500),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_bin_index_within_range_property(
        self, start, bin_seconds, n_bins, fraction
    ):
        grid = TimeGrid(start=start, bin_seconds=bin_seconds, n_bins=n_bins)
        # Guard against float rounding pushing the product up to the end
        # of the grid (the interval is half-open).
        timestamp = min(start + fraction * grid.seconds,
                        np.nextafter(float(grid.end), -np.inf))
        index = grid.bin_index(timestamp)
        assert 0 <= index < n_bins
        assert grid.bin_interval(index).contains(timestamp)
