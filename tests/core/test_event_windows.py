"""Event-window analyses score the run's own attack windows.

The Nov 2015 windows are the paper's, not every scenario's: the June
2016 follow-up holds none of their bins.  So every analysis that reads
event windows takes them as a required argument, and callers pass
``ScenarioResult.event_intervals()``.  A run without events, such as
the section 3.3.1 quiet control, has no window at all: its analyses
return empty, flagged or NaN results instead of raising.  So does a
run whose window ends before its events begin.
"""

import inspect

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.core import (
    clean_dataset,
    collateral_figure,
    collateral_sites,
    event_concentration,
    letters_with_event_churn,
    nl_event_minimum,
    nl_figure,
    silence_score,
    vp_timelines,
)
from repro.scenario.presets import QUIET_WINDOW_START, june2016_config
from repro.util import EVENT_1, EVENTS

WINDOW_ANALYSES = {
    collateral_sites: "events",
    collateral_figure: "events",
    nl_event_minimum: "events",
    silence_score: "events",
    event_concentration: "events",
    letters_with_event_churn: "events",
    vp_timelines: "event",
}


@pytest.fixture(scope="module")
def june():
    return simulate(june2016_config(
        seed=3, n_stubs=80, n_vps=60, letters=("D", "K"),
        include_nl=True,
    ))


@pytest.fixture(scope="module")
def cleaned(june):
    return clean_dataset(june.atlas)[0]


@pytest.mark.parametrize(
    "analysis", WINDOW_ANALYSES, ids=lambda f: f.__name__
)
def test_windows_have_no_default(analysis):
    name = WINDOW_ANALYSES[analysis]
    window = inspect.signature(analysis).parameters[name]
    assert window.default is inspect.Parameter.empty


class TestJune2016Windows:
    def test_grid_holds_no_nov2015_bin(self, june):
        assert not june.grid.event_mask(EVENTS).any()
        assert june.event_mask().any()

    def test_collateral(self, june, cleaned):
        events = june.event_intervals()
        flagged = collateral_sites(cleaned, "D", events)
        fig = collateral_figure(cleaned, "D", events)
        assert fig.names == [site.site for site in flagged]

    def test_nl_silence(self, june):
        events = june.event_intervals()
        fig = nl_figure(june.nl)
        for node in june.nl.node_labels:
            assert np.isfinite(nl_event_minimum(june.nl, node, events))
            score = silence_score(fig.get(node), june.grid, events)
            assert np.isfinite(score)

    def test_k_churn_concentrates_in_its_own_window(self, june):
        events = june.event_intervals()
        assert event_concentration(
            june.route_changes["K"], june.grid, events
        ) > 0.35
        assert "K" in letters_with_event_churn(
            june.route_changes, june.grid, events
        )

    def test_timelines_around_its_own_event(self, june, cleaned):
        (event,) = june.event_intervals()
        sites = cleaned.letter("K").site_codes
        assert vp_timelines(cleaned, "K", sites, event)


@pytest.fixture(scope="module")
def quiet():
    return simulate(ScenarioConfig(
        seed=3, n_stubs=60, n_vps=30, letters=("D", "K"), events=(),
        window_start=QUIET_WINDOW_START,
    ))


class TestRunWithoutEvents:
    def test_has_no_windows(self, quiet):
        assert quiet.event_intervals() == ()

    def test_collateral_flags_nothing(self, quiet):
        cleaned, _ = clean_dataset(quiet.atlas)
        events = quiet.event_intervals()
        assert collateral_sites(cleaned, "D", events) == []
        fig = collateral_figure(cleaned, "D", events)
        assert fig.series == ()
        (flag,) = fig.quality
        assert flag.letter == "D"
        assert "no event windows" in flag.detail
        with pytest.raises(KeyError, match="letter 'Z'"):
            collateral_sites(cleaned, "Z", events)

    def test_nl_scores_are_nan(self, quiet):
        events = quiet.event_intervals()
        fig = nl_figure(quiet.nl)
        for node in quiet.nl.node_labels:
            assert np.isnan(nl_event_minimum(quiet.nl, node, events))
            assert np.isnan(silence_score(fig.get(node), quiet.grid, events))

    def test_another_runs_windows_still_raise(self, quiet):
        cleaned, _ = clean_dataset(quiet.atlas)
        node = quiet.nl.node_labels[0]
        with pytest.raises(ValueError, match="does not cover"):
            collateral_sites(cleaned, "D", (EVENT_1,))
        with pytest.raises(ValueError):
            collateral_figure(cleaned, "D", (EVENT_1,))
        with pytest.raises(ValueError):
            nl_event_minimum(quiet.nl, node, (EVENT_1,))
        with pytest.raises(ValueError):
            silence_score(
                nl_figure(quiet.nl).get(node), quiet.grid, (EVENT_1,)
            )


@pytest.fixture(scope="module", params=[6 * 3600, 600], ids=["6h", "10min"])
def early(request):
    """A window that ends before the Nov 2015 events start (06:50)."""
    return simulate(ScenarioConfig(
        seed=6, n_stubs=40, n_vps=20, letters=("D", "K"),
        window_seconds=request.param,
    ))


class TestWindowMissingItsEvents:
    def test_has_no_windows(self, early):
        assert len(early.config.events) == 2
        assert early.event_intervals() == ()
        assert not early.event_mask().any()

    def test_analyses_take_the_no_event_path(self, early):
        cleaned, _ = clean_dataset(early.atlas)
        events = early.event_intervals()
        assert collateral_sites(cleaned, "D", events) == []
        fig = collateral_figure(cleaned, "D", events)
        assert fig.series == ()
        (flag,) = fig.quality
        assert "no event windows" in flag.detail
        nl = nl_figure(early.nl)
        for node in early.nl.node_labels:
            assert np.isnan(nl_event_minimum(early.nl, node, events))
            assert np.isnan(silence_score(nl.get(node), early.grid, events))

    def test_its_configured_windows_still_raise(self, early):
        cleaned, _ = clean_dataset(early.atlas)
        events = tuple(e.interval for e in early.config.events)
        with pytest.raises(ValueError, match="does not cover"):
            collateral_sites(cleaned, "D", events)
