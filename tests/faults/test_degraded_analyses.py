"""End-to-end: every analysis tolerates a faulted, gappy scenario.

Acceptance scenario for the fault layer: VP dropout, a missing RSSAC
event-day report, and a mid-window site hardware failure -- the whole
analysis pipeline must run without raising and surface the damage as
quality flags instead.
"""

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.core import (
    clean_dataset,
    collateral_sites,
    correlation_table,
    count_flips,
    event_size_table,
    flips_figure,
    observed_sites_table,
    reachability_figure,
    route_change_series,
    site_minmax_table,
    sites_vs_resilience,
)
from repro.faults import FaultPlan, RssacOutage, SiteFailure, VpDropout
from repro.rootdns import ATTACKED_LETTERS, LETTERS_SPEC
from repro.util.timegrid import EVENT_WINDOW_START as W

HOUR = 3600


@pytest.fixture(scope="module")
def degraded():
    plan = FaultPlan(
        specs=(
            VpDropout(start=W + 14 * HOUR, duration_s=2 * HOUR, fraction=0.4),
            RssacOutage(letter="K", start=W, duration_s=86_400),
            SiteFailure(
                letter="K", site="AMS", start=W + 12 * HOUR,
                duration_s=2 * HOUR, severity=1.0,
            ),
        )
    )
    return simulate(
        ScenarioConfig(
            seed=23, n_stubs=100, n_vps=60,
            letters=("A", "D", "K", "L"), faults=plan,
        )
    )


class TestPipelineSurvives:
    def test_scenario_quality_names_the_damage(self, degraded):
        q = degraded.quality
        assert q.degraded
        assert {"atlas", "rssac", "truth"} <= q.metrics()
        assert q.letters() == frozenset({"K"})
        # The atlas dropout flag carries its bin span.
        (atlas_flag,) = q.for_metric("atlas")
        assert atlas_flag.bins == (84, 95)

    def test_cleaning_and_reachability(self, degraded):
        cleaned, report = clean_dataset(degraded.atlas)
        assert report.n_kept > 0
        fig = reachability_figure(cleaned)
        assert set(fig.names) == {"A", "D", "K", "L"}
        for series in fig.series:
            assert np.isfinite(series.values).all()

    def test_catchment_tables(self, degraded):
        table = observed_sites_table(degraded.atlas)
        assert len(table.rows) == 4
        assert site_minmax_table(degraded.atlas, "K").rows

    def test_flips(self, degraded):
        fig = flips_figure(degraded.atlas)
        assert len(fig.series) == 4
        assert count_flips(degraded.atlas, "K").values.sum() >= 0

    def test_event_size_excludes_missing_letter(self, degraded):
        table = event_size_table(
            degraded.rssac, ATTACKED_LETTERS, "2015-11-30"
        )
        letters_in_table = {row[0].rstrip("*") for row in table.rows}
        assert "K" not in letters_in_table
        assert "A" in letters_in_table
        assert table.quality
        (flag,) = [f for f in table.quality if f.letter == "K"]
        assert flag.metric == "event_size"
        assert "! " in table.render()  # the flag is visible in the text

    def test_collateral(self, degraded):
        cleaned, _ = clean_dataset(degraded.atlas)
        sites = collateral_sites(cleaned, "D", degraded.event_intervals())
        assert isinstance(sites, list)

    def test_correlation(self, degraded):
        cleaned, _ = clean_dataset(degraded.atlas)
        site_counts = {L: s.n_sites for L, s in LETTERS_SPEC.items()}
        fit = sites_vs_resilience(cleaned, site_counts)
        # A is excluded by default, leaving exactly three letters --
        # still enough for a fit.
        assert fit.letters == ("D", "K", "L")
        assert np.isfinite(fit.r_squared)
        assert correlation_table(fit).rows[-1][0] == "R^2"

    def test_route_changes(self, degraded):
        fig = route_change_series(degraded.route_changes, degraded.grid)
        assert len(fig.series) == 4
