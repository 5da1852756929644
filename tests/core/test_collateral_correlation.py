"""Tests for collateral damage (Figs. 14-15) and the §3.2.1 R^2."""

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.core import (
    clean_dataset,
    collateral_figure,
    collateral_sites,
    correlation_table,
    nl_event_minimum,
    nl_figure,
    silence_score,
    sites_vs_resilience,
)
from repro.core.correlation import _linregress
from repro.rootdns import LETTERS_SPEC
from repro.scenario import QUIET_WINDOW_START

SITE_COUNTS = {L: s.n_sites for L, s in LETTERS_SPEC.items()}


@pytest.fixture(scope="module")
def cleaned(dataset):
    ds, _ = clean_dataset(dataset)
    return ds


@pytest.fixture(scope="module")
def events(scenario):
    """The scenario's own attack windows."""
    return scenario.event_intervals()


class TestCollateralSites:
    def test_d_fra_and_d_syd_flagged(self, cleaned, events):
        # Fig. 14: D was not attacked yet its Frankfurt and Sydney
        # sites dipped with the events.
        flagged = {c.site for c in collateral_sites(cleaned, "D", events)}
        assert "D-FRA" in flagged
        assert "D-SYD" in flagged

    def test_dips_meet_threshold(self, cleaned, events):
        for site in collateral_sites(cleaned, "D", events):
            assert site.dip_fraction >= 0.10
            assert site.median_vps >= 20

    def test_most_d_sites_unaffected(self, cleaned, events):
        obs = cleaned.letter("D")
        flagged = collateral_sites(cleaned, "D", events)
        assert len(flagged) < 0.2 * len(obs.site_codes)

    def test_figure(self, cleaned, events):
        fig = collateral_figure(cleaned, "D", events)
        assert fig.names == [
            c.site for c in collateral_sites(cleaned, "D", events)
        ]


class TestNlCollateral:
    def test_colocated_nodes_nearly_silent(self, scenario, events):
        # Fig. 15: the two co-located .nl nodes show nearly no
        # queries during both events.
        for node in ("nl-anycast-1", "nl-anycast-2"):
            assert nl_event_minimum(scenario.nl, node, events) < 0.25

    def test_standalone_nodes_keep_serving(self, scenario, events):
        for node in ("nl-uni-1", "nl-uni-4"):
            assert nl_event_minimum(scenario.nl, node, events) > 0.6

    def test_figure_has_six_nodes(self, scenario):
        assert len(nl_figure(scenario.nl).series) == 6

    def test_unknown_node_raises(self, scenario, events):
        with pytest.raises(KeyError):
            nl_event_minimum(scenario.nl, "nl-zz", events)

    def test_silence_score(self, scenario, events):
        fig = nl_figure(scenario.nl)
        colocated = silence_score(
            fig.get("nl-anycast-1"), scenario.grid, events
        )
        standalone = silence_score(
            fig.get("nl-uni-1"), scenario.grid, events
        )
        assert colocated > 0.7
        assert standalone < 0.4


class TestCorrelation:
    @pytest.fixture(scope="class")
    def fit(self, cleaned):
        return sites_vs_resilience(cleaned, SITE_COUNTS)

    def test_positive_relationship(self, fit):
        # More sites -> better worst responsiveness (section 3.2.1).
        assert fit.slope > 0

    def test_strong_r_squared(self, fit):
        # Paper reports R^2 = 0.87; our substrate lands in the same
        # "strong correlation" regime.
        assert fit.r_squared > 0.55

    def test_a_excluded_by_default(self, fit):
        assert "A" not in fit.letters

    def test_table(self, fit):
        table = correlation_table(fit)
        assert table.rows[-1][0] == "R^2"
        assert 0.0 <= table.rows[-1][2] <= 1.0

    def test_too_few_letters_degrades(self, cleaned):
        fit = sites_vs_resilience(cleaned, {"B": 1, "H": 2})
        assert np.isnan(fit.slope)
        assert np.isnan(fit.r_squared)
        assert fit.degraded
        assert fit.quality[0].metric == "correlation"
        # The per-letter numbers that do exist are kept.
        assert fit.letters == ("B", "H")
        assert all(np.isfinite(w) for w in fit.worst)

    def test_extremes_match_architecture(self, fit):
        by_letter = dict(zip(fit.letters, fit.worst))
        assert by_letter["B"] == min(by_letter.values())
        assert by_letter["L"] > 0.9

    def test_identical_site_counts_degrade(self, cleaned):
        # One shared x value fits no line; degrade like too few
        # letters instead of raising.
        fit = sites_vs_resilience(cleaned, {"G": 6, "M": 6, "K": 6})
        assert np.isnan(fit.slope)
        assert np.isnan(fit.intercept)
        assert np.isnan(fit.r_squared)
        assert fit.degraded
        assert fit.quality[0].metric == "correlation"
        assert fit.letters == ("G", "K", "M")
        assert fit.site_counts == (6, 6, 6)
        assert all(np.isfinite(w) for w in fit.worst)

    def test_flat_worst_flags_undefined_r_squared(self):
        # A quiet window: every letter keeps worst responsiveness 1.0,
        # so the line is flat and R^2 is 0/0.
        result = simulate(
            ScenarioConfig(
                seed=0,
                n_stubs=60,
                n_vps=12,
                events=(),
                window_start=QUIET_WINDOW_START,
                letters=("C", "D", "E", "L"),
                include_nl=False,
            )
        )
        fit = sites_vs_resilience(result.atlas, SITE_COUNTS)
        assert fit.worst == (1.0, 1.0, 1.0, 1.0)
        assert fit.slope == 0.0
        assert fit.intercept == 1.0
        assert np.isnan(fit.r_squared)
        assert fit.degraded
        assert fit.quality[0].metric == "correlation"
        assert "R^2 is undefined" in fit.quality[0].detail
        assert "R^2 is undefined" in correlation_table(fit).render()


class TestLinregressPort:
    """`_linregress` is bit-identical to `scipy.stats.linregress`."""

    @pytest.mark.parametrize(
        "counts,worst,expected",
        [
            pytest.param(
                (2, 5, 13),
                (0.25, 0.5, 0.8),
                (0.6769094004718121, 0.039683957586202134,
                 0.9991863968423689),
                id="three-points",
            ),
            pytest.param(
                # Table 2 site counts of letters B..M.
                (1, 8, 65, 74, 52, 6, 2, 48, 69, 32, 113, 6),
                (0.05, 0.62, 0.97, 0.95, 0.90, 0.45,
                 0.10, 0.92, 0.85, 0.60, 0.99, 0.96),
                (0.4236466937212929, 0.15874517298024482,
                 0.859581074548467),
                id="paper-letters",
            ),
            pytest.param(
                (3, 10, 40, 100),
                (0.9, 0.7, 0.6, 0.2),
                (-0.4141110924991593, 1.125836323700506,
                 -0.9417728852775754),
                id="negative-slope",
            ),
        ],
    )
    def test_pinned_to_scipy(self, counts, worst, expected):
        # slope, intercept, rvalue as SciPy 1.17 computes them.
        x = np.log10(np.array(counts))
        assert _linregress(x, np.array(worst)) == expected

    def test_matches_scipy_on_drawn_inputs(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2015)
        checked = 0
        for draw in range(450):
            n = int(rng.integers(3, 14))
            counts = rng.integers(1, 120, n)
            if np.all(counts == counts[0]):
                continue
            x = np.log10(counts)
            # Uniform y; y on a coarse grid (ties); y exactly on a line,
            # where rounding can push |r| past 1 and SciPy clips it.
            if draw % 3 == 0:
                y = rng.random(n)
            elif draw % 3 == 1:
                y = rng.integers(0, 4, n) / 4
                if np.all(y == y[0]):
                    continue
            else:
                y = rng.random() * x + rng.random()
            ref = stats.linregress(x, y)
            assert _linregress(x, y) == (
                ref.slope, ref.intercept, ref.rvalue
            )
            checked += 1
        assert checked > 300
