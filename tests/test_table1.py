"""Capstone: the paper's Table 1, one test per key observation.

Table 1 summarises the paper's findings; each test here asserts the
corresponding behaviour on the shared simulated scenario, so the
reproduction's headline claims are continuously verified.
"""

import numpy as np
import pytest

from repro.core import (
    behaviour_census,
    clean_dataset,
    collateral_sites,
    count_flips,
    event_size_table,
    nl_event_minimum,
    server_reachability,
    vps_per_site,
    worst_responsiveness,
)
from repro.rootdns import ATTACKED_LETTERS, RSSAC_REPORTING_LETTERS, SitePolicy
from repro.util import EVENT_1


@pytest.fixture(scope="module")
def cleaned(dataset):
    ds, _ = clean_dataset(dataset)
    return ds


class TestSection22:
    """'design choices under stress are withdraw or absorb; best
    depends on attackers vs. capacity per catchment'"""

    def test_both_policies_occur_in_the_event(self, scenario):
        actions = {
            r.action.value
            for dep in scenario.deployments.values()
            for r in dep.actions
            if r.cause == "policy"
        }
        assert "withdraw" in actions   # E's sites, H's primary
        assert "partial" in actions    # K-LHR / K-FRA
        # And big absorbers never pull their routes.
        k = scenario.deployments["K"]
        assert k.site_spec("AMS").policy is SitePolicy.ABSORB
        assert k.prefix.is_announced("AMS")


class TestSection31:
    """'event was at likely 35 Gb/s (50 Mq/s, an upper bound),
    resulting in 150 Gb/s reply traffic'"""

    def test_upper_bound_magnitudes(self, scenario):
        rssac = {
            L: scenario.rssac[L] for L in RSSAC_REPORTING_LETTERS
        }
        table = event_size_table(
            rssac, ATTACKED_LETTERS, "2015-11-30",
            len(ATTACKED_LETTERS),
        )
        upper_mqps = table.row_for("upper")[1]
        upper_gbps = table.row_for("upper")[2]
        assert 25 < upper_mqps < 60      # paper: ~51 Mq/s
        assert 15 < upper_gbps < 45      # paper: ~35 Gb/s


class TestSection32:
    """'letters saw minimal to severe loss (1% to 95%)'"""

    def test_loss_spans_minimal_to_severe(self, cleaned):
        worst = {
            L: worst_responsiveness(cleaned, L)
            for L in cleaned.letters
            if L != "A"
        }
        assert min(worst.values()) < 0.2    # severe (B)
        assert max(worst.values()) > 0.95   # minimal (L/M)


class TestSection33:
    """'loss was not uniform across each letter's anycast sites;
    overall loss does not predict user-observed loss at sites'"""

    def test_per_site_outcomes_diverge(self, cleaned, scenario):
        counts = vps_per_site(cleaned, "K")
        mask = scenario.event_mask()
        medians = np.median(counts, axis=0)
        stable = medians >= 20
        event_min = counts[mask][:, stable].min(axis=0)
        ratios = event_min / medians[stable]
        # Some sites nearly empty while others keep or gain VPs.
        assert ratios.min() < 0.3
        assert ratios.max() > 0.9


class TestSection34:
    """'some users flip to other sites; others stick to sometimes
    overloaded sites'"""

    def test_flips_and_stuck_users(self, cleaned, scenario):
        flips = count_flips(cleaned, "K")
        assert flips.values.sum() > 0
        from repro.core import vp_timelines

        census = behaviour_census(
            vp_timelines(cleaned, "K", ["LHR", "FRA"], event=EVENT_1)
        )
        assert census.get("shift+return", 0) > 0
        assert census.get("stuck", 0) > 0


class TestSection35:
    """'at some sites, some servers suffered disproportionately'"""

    def test_server_level_divergence(self, cleaned):
        fig = server_reachability(cleaned, "K", "FRA")
        during = np.array(
            [series.at_hour(8.0) for series in fig.series]
        )
        quiet = np.array(
            [series.at_hour(20.0) for series in fig.series]
        )
        # Quietly balanced; under stress one server takes it all.
        assert (quiet > 0).all()
        assert (during == 0).sum() == len(fig.series) - 1


class TestSection36:
    """'some collateral damage occurred to co-located services not
    directly under attack'"""

    def test_unattacked_services_suffer(self, cleaned, scenario):
        events = scenario.event_intervals()
        flagged = {c.site for c in collateral_sites(cleaned, "D", events)}
        assert flagged  # D was never attacked
        assert nl_event_minimum(scenario.nl, "nl-anycast-1", events) < 0.3
