"""Analyses over a dataset's kept columns against an explicit copy.

Cleaning keeps VPs without copying a matrix: the cleaned dataset reads
the raw matrices through the kept columns, and its analyses read
per-letter aggregates built from one letter's kept columns at a time.
Hypothesis draws matrices holding every response sentinel, NaN and
finite RTTs, and kept-VP masks that keep none, all, one or any subset
of the VPs.  Every analysis that reads the aggregates must give, bit
for bit, what it gives on a dataset built from an explicit
``[:, keep]`` copy of the matrices.  ``rtt_significantly_changed``
is also checked against per-bin ``np.median`` calls that apply its
*min_samples* cut-off, as it did before the medians became an
aggregate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    collateral_sites,
    count_flips,
    critical_episodes,
    letter_reachability,
    letter_rtt_series,
    rtt_significantly_changed,
    site_minmax,
    vps_per_site,
)
from repro.datasets.observations import (
    RESP_BOGUS,
    RESP_ERROR,
    RESP_NOT_PROBED,
    RESP_TIMEOUT,
    AtlasDataset,
    LetterObservations,
    VantagePointTable,
)
from repro.faults.quality import probe_gap_flags
from repro.util.timegrid import Interval, TimeGrid

SENTINELS = (RESP_TIMEOUT, RESP_ERROR, RESP_BOGUS, RESP_NOT_PROBED)


def _vps(n_vps: int) -> VantagePointTable:
    return VantagePointTable(
        ids=np.arange(n_vps, dtype=np.int64),
        asns=np.zeros(n_vps, dtype=np.int64),
        lats=np.zeros(n_vps),
        lons=np.zeros(n_vps),
        regions=np.full(n_vps, "EU"),
        firmware=np.full(n_vps, 5000, dtype=np.int32),
        hijacked=np.zeros(n_vps, dtype=bool),
    )


@st.composite
def kept_datasets(draw):
    """A two-letter dataset and a kept-VP mask."""
    n_bins, n_vps = draw(st.integers(1, 12)), draw(st.integers(0, 16))
    letters = {}
    for letter in ("K", "A"):
        n_sites = draw(st.integers(1, 4))
        cell = st.one_of(
            st.sampled_from(SENTINELS), st.integers(0, n_sites - 1)
        )
        site_idx = draw(arrays(np.int16, (n_bins, n_vps), elements=cell))
        for b in draw(st.sets(st.integers(0, n_bins - 1), max_size=2)):
            site_idx[b] = draw(st.sampled_from(SENTINELS))
        rtt = st.one_of(
            st.just(np.nan),
            st.floats(1.0, 400.0, width=32),
            st.sampled_from([20.0, 80.0]),
        )
        letters[letter] = LetterObservations(
            letter=letter,
            site_codes=[f"S{i}" for i in range(n_sites)],
            site_idx=site_idx,
            rtt_ms=draw(arrays(np.float32, (n_bins, n_vps), elements=rtt)),
            server=draw(arrays(
                np.int16, (n_bins, n_vps), elements=st.integers(0, 3)
            )),
        )
    keep = draw(st.one_of(
        st.just(np.zeros(n_vps, dtype=bool)),
        st.just(np.ones(n_vps, dtype=bool)),
        st.integers(0, max(n_vps - 1, 0)).map(
            lambda vp: np.arange(n_vps) == vp
        ),
        arrays(np.bool_, n_vps),
    ))
    grid = TimeGrid(start=0, bin_seconds=600, n_bins=n_bins)
    first = draw(st.integers(0, n_bins - 1))
    last = draw(st.integers(first, n_bins - 1))
    events = (Interval(first * 600, (last + 1) * 600),)
    return AtlasDataset(grid, _vps(n_vps), letters), keep, events


def explicit_copy(dataset: AtlasDataset, keep: np.ndarray) -> AtlasDataset:
    """The kept VPs as a dataset of copied ``[:, keep]`` matrices."""
    vps = dataset.vps
    return AtlasDataset(
        dataset.grid,
        VantagePointTable(
            ids=vps.ids[keep], asns=vps.asns[keep], lats=vps.lats[keep],
            lons=vps.lons[keep], regions=vps.regions[keep],
            firmware=vps.firmware[keep], hijacked=vps.hijacked[keep],
        ),
        {
            letter: LetterObservations(
                letter, obs.site_codes, obs.site_idx[:, keep].copy(),
                obs.rtt_ms[:, keep].copy(), obs.server[:, keep].copy(),
            )
            for letter, obs in dataset.letters.items()
        },
    )


def reference_rtt_changed(
    obs: LetterObservations, min_samples: int
) -> bool:
    """``rtt_significantly_changed`` with a ``np.median`` per bin that
    has *min_samples* successful probes, as before the medians became
    an aggregate."""
    medians = np.full(obs.n_bins, np.nan)
    for b in range(obs.n_bins):
        rtts = obs.rtt_ms[b][obs.success_mask()[b]]
        if rtts.size >= max(min_samples, 1):
            medians[b] = np.median(rtts)
    if np.isnan(medians).all():
        return False
    baseline = float(np.nanmedian(medians))
    if not np.isfinite(baseline) or baseline <= 0:
        return False
    return float(np.nanmax(medians)) > max(1.8 * baseline, baseline + 50.0)


def _same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and np.array_equal(
        got, want, equal_nan=got.dtype.kind == "f"
    )


def analyses(dataset: AtlasDataset, letter: str, events) -> dict:
    """Every analysis that reads the per-letter aggregates."""
    return {
        "vps_per_site": vps_per_site(dataset, letter),
        "reachability": letter_reachability(dataset, letter).values,
        "unscaled": letter_reachability(dataset, letter, False).values,
        "probe_gaps": probe_gap_flags(dataset, [letter], "test"),
        "rtt_series": letter_rtt_series(dataset, letter).values,
        "rtt_changed_1": rtt_significantly_changed(
            dataset, letter, min_samples=1
        ),
        "rtt_changed_10": rtt_significantly_changed(dataset, letter),
        "flips": count_flips(dataset, letter).values,
        "site_minmax": site_minmax(dataset, letter),
        "critical": critical_episodes(dataset, letter),
        "collateral": collateral_sites(
            dataset, letter, events, min_dip=0.0, min_vps=1
        ),
    }


@settings(max_examples=300)
@given(kept_datasets())
def test_kept_columns_match_an_explicit_copy(drawn):
    dataset, keep, events = drawn
    kept = dataset.select_vps(keep)
    copy = explicit_copy(dataset, keep)
    for letter in ("K", "A"):
        got = analyses(kept, letter, events)
        want = analyses(copy, letter, events)
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                assert _same_array(got[name], value), name
            elif name == "critical":
                assert list(got[name]) == list(value)
                for site, mask in value.items():
                    assert _same_array(got[name][site], mask), site
            else:
                assert got[name] == value, name
        for min_samples in (1, 10):
            assert got[f"rtt_changed_{min_samples}"] == (
                reference_rtt_changed(copy.letter(letter), min_samples)
            )
        # Reading an aggregate again returns the one already built.
        assert vps_per_site(kept, letter) is got["vps_per_site"]
