"""The analyses' observation-matrix derivations against the loops they
replaced.

``LetterObservations`` decodes the Atlas matrices for every analysis:
:meth:`server_masks` enumerates a site's servers, ``flips._modal_sites``
finds every VP's modal site with one bincount, and
``answering_servers_per_bin`` and ``inflation_series`` reduce whole
matrices instead of looping per bin.  The per-VP and per-bin loops
they replaced are kept below as references; Hypothesis draws matrices
holding every response sentinel, tied site counts, unknown servers
(0), and VPs and bins that no site answered, and old and new must
agree exactly.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import answering_servers_per_bin, inflation_series
from repro.core.efficiency import _distances
from repro.core.flips import _modal_sites, _site_track
from repro.datasets.observations import (
    RESP_BOGUS,
    RESP_ERROR,
    RESP_NOT_PROBED,
    RESP_TIMEOUT,
    AtlasDataset,
    LetterObservations,
    VantagePointTable,
)
from repro.netsim.topology import TopologyConfig, build_topology
from repro.rootdns.deployment import build_deployments
from repro.rootdns.letters import LETTERS_SPEC
from repro.util.rng import component_rng
from repro.util.timegrid import TimeGrid

SENTINELS = (RESP_TIMEOUT, RESP_ERROR, RESP_BOGUS, RESP_NOT_PROBED)


def reference_modal_sites(track: np.ndarray) -> np.ndarray:
    """The per-VP loop: ``np.bincount(...).argmax()`` of each column's
    sites, -1 for a column without one."""
    modal = np.full(track.shape[1], -1, dtype=np.int64)
    for vp in range(track.shape[1]):
        sites = track[:, vp][track[:, vp] >= 0]
        if sites.size:
            modal[vp] = np.bincount(sites).argmax()
    return modal


def reference_servers(obs: LetterObservations, index: int) -> list[int]:
    """The sorted-unique enumeration of a site's known servers."""
    at_site = obs.site_idx == index
    return sorted(int(s) for s in np.unique(obs.server[at_site]) if s > 0)


def reference_servers_per_bin(
    obs: LetterObservations, index: int
) -> np.ndarray:
    """The per-bin loop: distinct known servers answering at a site."""
    at_site = obs.site_idx == index
    counts = np.zeros(obs.n_bins, dtype=np.float64)
    for b in range(obs.n_bins):
        servers = obs.server[b][at_site[b]]
        counts[b] = np.unique(servers[servers > 0]).size
    return counts


def reference_inflation(
    obs: LetterObservations, distances: np.ndarray
) -> np.ndarray:
    """The per-bin loop: ``np.median`` of the answered cells'
    distance inflation over each VP's nearest site."""
    nearest = distances.min(axis=1)
    values = np.full(obs.n_bins, np.nan)
    for b in range(obs.n_bins):
        row = obs.site_idx[b]
        mask = row >= 0
        if not mask.any():
            continue
        actual = distances[np.flatnonzero(mask), row[mask].astype(int)]
        values[b] = np.median(actual - nearest[mask])
    return values


@functools.cache
def k_deployment():
    """K-Root on a small topology; the analyses read only its letter
    and site locations."""
    topology = build_topology(
        TopologyConfig(n_stubs=40), component_rng(0, "topology")
    )
    return build_deployments(topology, letters={"K": LETTERS_SPEC["K"]})["K"]


@st.composite
def datasets(draw, n_sites=None):
    """A one-letter dataset answered by a pool of at most three sites
    (so ties are common), with every sentinel, server 0 among the
    servers, and whole VPs and bins that no site answered."""
    if n_sites is None:
        n_sites = draw(st.integers(1, 4))
    n_bins, n_vps = draw(st.integers(1, 8)), draw(st.integers(0, 10))
    pool = draw(
        st.lists(st.integers(0, n_sites - 1), min_size=1, max_size=3)
    )
    cell = st.one_of(st.sampled_from(SENTINELS), st.sampled_from(pool))
    site_idx = draw(arrays(np.int16, (n_bins, n_vps), elements=cell))
    wiped = st.sets(st.integers(0, max(n_vps - 1, 0)), max_size=2)
    for vp in draw(wiped):
        if vp < n_vps:
            site_idx[:, vp] = draw(st.sampled_from(SENTINELS))
    for b in draw(st.sets(st.integers(0, n_bins - 1), max_size=2)):
        site_idx[b] = draw(st.sampled_from(SENTINELS))
    server = draw(
        arrays(np.int16, (n_bins, n_vps), elements=st.integers(0, 3))
    )
    coord = st.floats(-60.0, 60.0)
    vps = VantagePointTable(
        ids=np.arange(n_vps, dtype=np.int64),
        asns=np.zeros(n_vps, dtype=np.int64),
        lats=draw(arrays(np.float64, n_vps, elements=coord)),
        lons=draw(arrays(np.float64, n_vps, elements=coord)),
        regions=np.full(n_vps, "EU"),
        firmware=np.full(n_vps, 5000, dtype=np.int32),
        hijacked=np.zeros(n_vps, dtype=bool),
    )
    obs = LetterObservations(
        letter="K",
        site_codes=[f"S{i}" for i in range(n_sites)],
        site_idx=site_idx,
        rtt_ms=np.full((n_bins, n_vps), np.nan, dtype=np.float32),
        server=server,
    )
    grid = TimeGrid(start=0, bin_seconds=600, n_bins=n_bins)
    return AtlasDataset(grid=grid, vps=vps, letters={"K": obs})


@settings(max_examples=300)
@given(datasets())
def test_modal_sites_match_per_vp_bincount(dataset):
    obs = dataset.letter("K")
    track = _site_track(obs.site_idx)
    got = _modal_sites(track, len(obs.site_codes))
    assert np.array_equal(got, reference_modal_sites(track))


@settings(max_examples=300)
@given(datasets())
def test_server_masks_match_sorted_unique_enumeration(dataset):
    obs = dataset.letter("K")
    for index, code in enumerate(obs.site_codes):
        masks = obs.server_masks(code)
        assert [srv for srv, _ in masks] == reference_servers(obs, index)
        for srv, replies in masks:
            want = (obs.site_idx == index) & (obs.server == srv)
            assert np.array_equal(replies, want)


@settings(max_examples=300)
@given(datasets())
def test_answering_servers_match_per_bin_unique(dataset):
    obs = dataset.letter("K")
    for index, code in enumerate(obs.site_codes):
        got = answering_servers_per_bin(dataset, "K", code).values
        want = reference_servers_per_bin(obs, index)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=300)
@given(datasets(n_sites=len(LETTERS_SPEC["K"].sites)))
def test_inflation_matches_per_bin_median(dataset):
    deployment = k_deployment()
    got = inflation_series(dataset, deployment).values
    want = reference_inflation(
        dataset.letter("K"), _distances(dataset, deployment)
    )
    assert np.array_equal(got, want, equal_nan=True), (got, want)
