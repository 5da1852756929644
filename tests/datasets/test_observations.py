"""Tests for the observation dataset schema."""

import pickle

import numpy as np
import pytest

from repro.datasets import (
    AtlasDataset,
    LetterObservations,
    RESP_NOT_PROBED,
    RESP_TIMEOUT,
    VantagePointTable,
)
from repro.util import TimeGrid


def _vps(n=4):
    return VantagePointTable(
        ids=np.arange(n, dtype=np.int64),
        asns=np.full(n, 10_000, dtype=np.int64),
        lats=np.zeros(n),
        lons=np.zeros(n),
        regions=np.array(["EU"] * n, dtype="U2"),
        firmware=np.full(n, 4700, dtype=np.int32),
        hijacked=np.zeros(n, dtype=bool),
    )


def _obs(letter="K", n_bins=3, n_vps=4):
    return LetterObservations(
        letter=letter,
        site_codes=["AMS", "LHR"],
        site_idx=np.zeros((n_bins, n_vps), dtype=np.int16),
        rtt_ms=np.full((n_bins, n_vps), 20.0, dtype=np.float32),
        server=np.ones((n_bins, n_vps), dtype=np.int16),
    )


def _gathered(obs):
    """The matrices a kept letter has gathered so far (set slots)."""
    gathered = []
    for name in ("site_idx", "rtt_ms", "server"):
        try:
            LetterObservations.__dict__[name].__get__(obs)
        except AttributeError:
            continue
        gathered.append(name)
    return gathered


class TestVantagePointTable:
    def test_len_and_europe_fraction(self):
        vps = _vps()
        assert len(vps) == 4
        assert vps.europe_fraction() == 1.0

    def test_rejects_misaligned_columns(self):
        with pytest.raises(ValueError):
            VantagePointTable(
                ids=np.arange(3, dtype=np.int64),
                asns=np.zeros(2, dtype=np.int64),
                lats=np.zeros(3),
                lons=np.zeros(3),
                regions=np.array(["EU"] * 3, dtype="U2"),
                firmware=np.zeros(3, dtype=np.int32),
                hijacked=np.zeros(3, dtype=bool),
            )

    def test_rejects_duplicate_ids(self):
        vps = _vps()
        with pytest.raises(ValueError):
            VantagePointTable(
                ids=np.zeros(4, dtype=np.int64),
                asns=vps.asns,
                lats=vps.lats,
                lons=vps.lons,
                regions=vps.regions,
                firmware=vps.firmware,
                hijacked=vps.hijacked,
            )


class TestLetterObservations:
    def test_shapes(self):
        obs = _obs()
        assert obs.n_bins == 3
        assert obs.n_vps == 4

    def test_rejects_misaligned_matrices(self):
        with pytest.raises(ValueError):
            LetterObservations(
                letter="K",
                site_codes=["AMS"],
                site_idx=np.zeros((3, 4), dtype=np.int16),
                rtt_ms=np.zeros((3, 5), dtype=np.float32),
                server=np.zeros((3, 4), dtype=np.int16),
            )

    def test_site_code_lookup(self):
        obs = _obs()
        assert obs.site_code(1) == "LHR"
        assert obs.site_index("LHR") == 1
        with pytest.raises(ValueError):
            obs.site_code(RESP_TIMEOUT)

    def test_masks(self):
        obs = _obs()
        obs.site_idx[0, 0] = RESP_TIMEOUT
        obs.site_idx[1, 1] = RESP_NOT_PROBED
        assert not obs.success_mask()[0, 0]
        assert not obs.probed_mask()[1, 1]
        assert obs.probed_mask()[0, 0]

    def test_response_counts(self):
        obs = _obs()
        obs.site_idx[0, 0] = RESP_TIMEOUT
        obs.site_idx[1, :2] = RESP_NOT_PROBED
        successes, probed = obs.response_counts()
        assert successes.tolist() == [3, 2, 4]
        assert probed.tolist() == [4, 2, 4]


class TestAtlasDataset:
    def test_validates_shapes(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        ds = AtlasDataset(grid=grid, vps=_vps(), letters={"K": _obs()})
        assert ds.letter("K").letter == "K"

    def test_rejects_bin_mismatch(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=5)
        with pytest.raises(ValueError):
            AtlasDataset(grid=grid, vps=_vps(), letters={"K": _obs()})

    def test_rejects_vp_mismatch(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        with pytest.raises(ValueError):
            AtlasDataset(
                grid=grid, vps=_vps(n=5), letters={"K": _obs(n_vps=4)}
            )

    def test_unknown_letter_raises(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        ds = AtlasDataset(grid=grid, vps=_vps(), letters={"K": _obs()})
        with pytest.raises(KeyError):
            ds.letter("Z")

    def test_select_vps_cascades(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        ds = AtlasDataset(grid=grid, vps=_vps(), letters={"K": _obs()})
        sub = ds.select_vps(np.array([True, True, False, False]))
        assert len(sub.vps) == 2
        assert sub.letter("K").n_vps == 2

    def test_select_vps_validates_mask(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        ds = AtlasDataset(grid=grid, vps=_vps(), letters={"K": _obs()})
        with pytest.raises(ValueError, match="mask must match VP count"):
            ds.select_vps(np.array([True]))

    def test_select_vps_shares_the_matrices_read_only(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        obs = _obs()
        obs.site_idx[:] = np.arange(4)
        ds = AtlasDataset(grid=grid, vps=_vps(), letters={"K": obs})
        sub = ds.select_vps(np.array([False, True, False, True]))
        assert sub.columns.tolist() == [1, 3]
        shared = sub._matrices["K"]
        for name in ("site_idx", "rtt_ms", "server"):
            view = getattr(shared, name)
            assert np.shares_memory(view, getattr(obs, name))
            assert not view.flags.writeable
        # Reading a letter gathers its kept columns.
        assert sub.letter("K").site_idx.tolist() == [[1, 3]] * 3
        assert sub.letters["K"].n_vps == 2
        assert ds.letter("K") is obs

    def test_selecting_twice_composes_columns(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        obs = _obs(n_vps=4)
        obs.site_idx[:] = np.arange(4)
        ds = AtlasDataset(grid=grid, vps=_vps(), letters={"K": obs})
        sub = ds.select_vps(np.array([True, False, True, True]))
        subsub = sub.select_vps(np.array([False, True, True]))
        assert subsub.columns.tolist() == [2, 3]
        assert subsub.vps.ids.tolist() == [2, 3]
        assert subsub.letter("K").site_idx.tolist() == [[2, 3]] * 3

    def test_kept_letters_gather_only_what_is_read(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        ds = AtlasDataset(
            grid=grid, vps=_vps(),
            letters={"K": _obs(), "A": _obs(letter="A")},
        )
        sub = ds.select_vps(np.array([True, False, True, True]))
        assert list(sub.letters) == ["K", "A"]
        kept = sub.letter("K")
        assert kept.site_codes == ["AMS", "LHR"]
        assert kept.site_index("LHR") == 1
        assert _gathered(kept) == []
        assert kept.success_mask().shape == (3, 3)
        assert _gathered(kept) == ["site_idx"]
        assert kept.site_idx is kept.site_idx
        assert kept.rtt_ms.tolist() == [[20.0] * 3] * 3
        assert _gathered(kept) == ["site_idx", "rtt_ms"]
        with pytest.raises(KeyError, match="no observations for letter 'Z'"):
            sub.letter("Z")

    def test_aggregate_is_built_once_and_read_only(self):
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        ds = AtlasDataset(grid=grid, vps=_vps(), letters={"K": _obs()})
        sub = ds.select_vps(np.array([True, False, True, True]))
        builds = []

        def build(obs):
            builds.append(obs.n_vps)
            return obs.response_counts()

        first = sub.aggregate("K", build)
        assert sub.aggregate("K", build) is first
        assert builds == [3]
        successes, probed = first
        assert successes.tolist() == [3, 3, 3]
        with pytest.raises(ValueError, match="read-only"):
            successes[0] = 0

    def test_pickles_hold_the_three_fields(self):
        # Sweep checkpoints pickle whole results, so a dataset pickles
        # as it did before kept columns and aggregates existed.
        grid = TimeGrid(start=0, bin_seconds=600, n_bins=3)
        ds = AtlasDataset(grid=grid, vps=_vps(), letters={"K": _obs()})
        ds.aggregate("K", LetterObservations.response_counts)
        state = ds.__reduce_ex__(4)[2]
        assert state[0] is None
        assert list(state[1]) == ["grid", "vps", "letters"]
        loaded = pickle.loads(pickle.dumps(ds, protocol=4))
        assert loaded.columns is None
        assert np.array_equal(
            loaded.letter("K").site_idx, ds.letter("K").site_idx
        )
        sub = ds.select_vps(np.array([True, False, True, True]))
        loaded = pickle.loads(pickle.dumps(sub, protocol=4))
        assert loaded.columns is None
        assert np.array_equal(
            loaded.letter("K").site_idx, sub.letter("K").site_idx
        )
        assert np.array_equal(loaded.vps.ids, sub.vps.ids)
