"""Tests for the observation dataset schema."""

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

    def test_select_vps(self):
        obs = _obs()
        keep = np.array([True, False, True, False])
        sub = obs.select_vps(keep)
        assert sub.n_vps == 2
        with pytest.raises(ValueError):
            obs.select_vps(np.array([True]))


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
