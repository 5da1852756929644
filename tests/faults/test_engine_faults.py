"""Engine-level fault injection: effects, determinism, degradation.

One small faulted scenario (4 letters, 48 h window) exercises every
fault type at once; the tests then check each substrate's perturbation,
the quality report, bit-for-bit determinism, and that the full
analysis pipeline degrades gracefully instead of raising.
"""

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.datasets import RESP_NOT_PROBED
from repro.faults import (
    BgpSessionReset,
    ControllerOutage,
    FaultPlan,
    PeerChurn,
    RssacOutage,
    SiteFailure,
    VpDropout,
)
from repro.util.timegrid import EVENT_WINDOW_START as W

HOUR = 3600

#: Mid-window quiet-time faults (both events are over by 10:00 on the
#: first day and the second event starts at 05:10 on the second).
PLAN = FaultPlan(
    specs=(
        # K-AMS hardware dies for 2 h (bins 72-83).
        SiteFailure(
            letter="K", site="AMS", start=W + 12 * HOUR,
            duration_s=2 * HOUR, severity=1.0,
        ),
        # K-LHR session reset + damping: down 30 min (bins 90-92).
        BgpSessionReset(
            letter="K", site="LHR", start=W + 15 * HOUR, duration_s=1800,
        ),
        # Half the VP fleet silent for 1 h (bins 108-113).
        VpDropout(start=W + 18 * HOUR, duration_s=HOUR, fraction=0.5),
        # Whole-fleet controller outage for 30 min (bins 126-128).
        ControllerOutage(start=W + 21 * HOUR, duration_s=1800),
        # Half the BGPmon peers down around the first event.
        PeerChurn(start=W + 6 * HOUR, duration_s=2 * HOUR, fraction=0.5),
        # K's RSSAC report for the first event day never published.
        RssacOutage(letter="K", start=W, duration_s=86_400),
    )
)


def _config(faults=FaultPlan(), seed=11):
    return ScenarioConfig(
        seed=seed, n_stubs=100, n_vps=60,
        letters=("A", "D", "K", "L"), faults=faults,
    )


@pytest.fixture(scope="module")
def faulted():
    return simulate(_config(faults=PLAN))


@pytest.fixture(scope="module")
def baseline():
    return simulate(_config())


class TestQualityReport:
    def test_all_fault_families_flagged(self, faulted):
        assert faulted.quality.degraded
        assert {"truth", "routing", "atlas", "bgpmon", "rssac"} <= (
            faulted.quality.metrics()
        )

    def test_degraded_letters_identified(self, faulted):
        assert "K" in faulted.quality.letters()

    def test_flags_carry_bin_spans(self, faulted):
        (flag,) = faulted.quality.for_metric("truth")
        assert flag.bins == (72, 83)
        (flag,) = faulted.quality.for_metric("routing")
        assert flag.bins == (90, 92)

    def test_baseline_run_is_clean(self, baseline):
        assert not baseline.quality
        assert not baseline.quality.degraded


class TestSiteFailure:
    def test_failed_site_black_holes(self, faulted):
        t = faulted.truth["K"]
        ams = t.site_codes.index("AMS")
        covered = t.loss[72:84, ams]
        offered = t.offered_qps[72:84, ams]
        assert (offered > 0).all()  # BGP still routes traffic there
        assert (covered > 0.99).all()  # ...and nearly all of it is lost

    def test_loss_recovers_after_failure(self, faulted, baseline):
        t = faulted.truth["K"]
        ams = t.site_codes.index("AMS")
        assert t.loss[84:96, ams].max() < 0.5
        b = baseline.truth["K"]
        assert b.loss[72:84, ams].max() < 0.5

    def test_other_sites_unaffected_in_quiet_bins(self, faulted, baseline):
        t, b = faulted.truth["L"], baseline.truth["L"]
        assert np.allclose(t.loss[72:84], b.loss[72:84])


class TestSessionReset:
    def test_announcement_flaps(self, faulted, baseline):
        t = faulted.truth["K"]
        lhr = t.site_codes.index("LHR")
        assert not t.announced[90:93, lhr].any()
        assert t.announced[93, lhr]
        assert t.announced[89, lhr]
        assert baseline.truth["K"].announced[90:93, lhr].all()

    def test_transitions_visible_to_bgpmon(self, faulted, baseline):
        # The withdraw and re-announce are recorded as fault actions
        # and show up as extra observed updates around the reset bins.
        window = slice(89, 95)
        extra = faulted.route_changes["K"][window].sum()
        base = baseline.route_changes["K"][window].sum()
        assert extra > base


class TestAtlasMasking:
    def test_dropout_blanks_cells(self, faulted):
        obs = faulted.atlas.letter("K")
        not_probed = (obs.site_idx[108:114] == RESP_NOT_PROBED).sum(axis=1)
        # At least the dropped half of 60 VPs is silent in every
        # covered bin (plus whatever the probing cadence skips).
        assert (not_probed >= 30).all()

    def test_dropout_is_window_scoped(self, faulted, baseline):
        obs = faulted.atlas.letter("K")
        base = baseline.atlas.letter("K")
        assert (obs.site_idx[100:106] == base.site_idx[100:106]).all()

    def test_controller_outage_blanks_fleet(self, faulted):
        for letter in faulted.letters:
            obs = faulted.atlas.letter(letter)
            assert (obs.site_idx[126:129] == RESP_NOT_PROBED).all()
            assert np.isnan(obs.rtt_ms[126:129]).all()


class TestRssacOutage:
    def test_event_day_report_missing(self, faulted):
        dates = [r.date for r in faulted.rssac["K"]]
        assert "2015-11-30" not in dates
        assert "2015-12-01" in dates

    def test_other_letters_keep_reporting(self, faulted):
        assert "2015-11-30" in [r.date for r in faulted.rssac["A"]]

    def test_missing_day_flagged(self, faulted):
        flags = faulted.quality.for_metric("rssac")
        assert any(
            f.letter == "K" and "2015-11-30" in f.detail for f in flags
        )


class TestPeerChurn:
    def test_counts_never_exceed_full_fleet(self, faulted, baseline):
        # Peer churn can only remove observers.  Outside the churn
        # window counts come from the same seeded stream, but the
        # Poisson draws shift once any count differs, so only the
        # aggregate inequality is meaningful per letter.
        for letter in faulted.letters:
            assert (
                faulted.route_changes[letter].sum()
                <= baseline.route_changes[letter].sum() + 1e-9
            )


class TestScopeValidation:
    def test_unknown_letter_rejected(self):
        plan = FaultPlan(
            specs=(
                SiteFailure(
                    letter="Z", site="AMS", start=W, duration_s=600
                ),
            )
        )
        with pytest.raises(ValueError, match="not simulated"):
            simulate(_config(faults=plan))

    def test_unknown_site_rejected(self):
        plan = FaultPlan(
            specs=(
                BgpSessionReset(letter="K", site="ZZZ", start=W),
            )
        )
        with pytest.raises(ValueError, match="does not operate"):
            simulate(_config(faults=plan))


class TestDeterminism:
    def test_same_seed_same_faults_bit_identical(self, faulted):
        again = simulate(_config(faults=PLAN))
        for letter in faulted.letters:
            a, b = faulted.atlas.letter(letter), again.atlas.letter(letter)
            assert (a.site_idx == b.site_idx).all()
            assert np.array_equal(a.rtt_ms, b.rtt_ms, equal_nan=True)
            assert (
                faulted.route_changes[letter] == again.route_changes[letter]
            ).all()
            assert (
                faulted.truth[letter].loss == again.truth[letter].loss
            ).all()
            assert [r.date for r in faulted.rssac[letter]] == [
                r.date for r in again.rssac[letter]
            ]
        assert faulted.quality == again.quality

    def test_different_seed_different_dropout(self):
        a = simulate(_config(faults=PLAN, seed=11))
        b = simulate(_config(faults=PLAN, seed=12))
        ka = a.atlas.letter("K").site_idx[108:114]
        kb = b.atlas.letter("K").site_idx[108:114]
        assert not (ka == kb).all()
