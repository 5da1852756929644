"""``scripts/run_paper.py``'s 17 renders, end to end.

Three guards on what users actually read:

* at seed 7, 120 stubs and 150 VPs, every render's text hashes to the
  SHA-256 recorded below.  The literals are regenerated only for an
  intentional semantic change, exactly as the golden fixture of
  ``tests/scenario/test_golden_equivalence.py`` is; a refactor or a
  performance change that moves any of them changed what the paper
  figures say;
* at 12 VPs several series are NaN in every bin, and rendering them
  must still be quiet: no warning of any kind;
* ``render_all`` renders one cell at a time, so no two cleaned
  datasets are ever alive together;
* cleaning copies no matrix: each cleaned dataset reads its cell
  through read-only views, so rendering leaves the cells' output
  arrays unchanged, and each of its per-letter aggregates is built at
  most once.
"""

import argparse
import gc
import hashlib
import importlib
import pathlib
import sys
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core import catchments, flips, rtt
from repro.datasets import LetterObservations
from repro.scenario.arrays import result_arrays
from repro.sweep import run_sweep

SCRIPTS = str(
    pathlib.Path(__file__).resolve().parent.parent.parent / "scripts"
)

RENDER_SHA256 = {
    "table2_observed_sites":
        "2358e8d4f31867bb3e7667120e2eb7d8b8a4cc21efd73c5458634dcdba1514c9",
    "fig3_reachability":
        "79ca5dcf97bc71dd5d9bc7299f2947593a1b2083ceb09eb27f809a9b9e5a95d9",
    "fig4_letter_rtt":
        "2df476e4eab4cd29f87c9089d3e846eaae10907b036651f504adbe8c7834ca9c",
    "fig5_site_minmax":
        "4e063d79722bafb647b23858c23aa9d07b8e9b506f5e9af8dd46881aa4256dee",
    "fig6_site_timeseries":
        "79ad914f9965e90ef6d77dedffcfe7bd91d7433472f6a25039fe1df488660e9d",
    "fig7_k_site_rtt":
        "ebfa4eda1d4cfc059f102ef9c0d1aa310003877f7b31dc290aca95879eeaf76c",
    "fig8_flips":
        "cceaae84051f8592b1b1bf7bd66ee3e78cc06bb66163aa65608bd0c084444118",
    "fig9_route_changes":
        "99f3b69685c3b6c26867726c27ff825c4c33a7ee4d4c6e11da8e5756fb7c39fe",
    "fig10_flip_destinations":
        "ccb1af7677fa4ea75f5bcca84cf0734d8bd62c40c55fb1d247c90925634a31c1",
    "fig11_behaviour_census":
        "9fc22669018cf93fff3a578c5e9d639af096c3789a9a7466f74c0b6535c44f2a",
    "fig12_server_reachability":
        "a9419e1999847bb1963969ae1bb1612d3b2ab04fcf49e35b989647056ef79d60",
    "fig13_server_rtt":
        "e3765aaff0188d4aec96c36803c374ab4b3c7bc40957bf5d11e2d140d635b36d",
    "fig14_collateral":
        "6ed82a131bb6315476a8d46ea19229305177d0b83cd9d1f9cd437cbb3e5d88c4",
    "fig15_nl":
        "65bc8d313b50243667c97153f4543677f877721fb0e8bddb07bb5cac5678f3fb",
    "table3_event_size":
        "5d29debe7bb2a878a37c21bfc81a4d03b9a69ac1da53202dd8df2ca030c22172",
    "quiet_control":
        "05e104ce869f8204431a045b23a512ecdaa6e514944f3a1236a453b78899324d",
    "june2016":
        "d656440e2536e555467cb9242607cdd40dec63d7b75a1c29e1a198606c950e5f",
}


@pytest.fixture(scope="module")
def run_paper():
    sys.path.insert(0, SCRIPTS)
    try:
        yield importlib.import_module("run_paper")
    finally:
        sys.path.remove(SCRIPTS)


def _render(run_paper, seed, stubs, vps):
    spec = run_paper.paper_spec(
        argparse.Namespace(seed=seed, stubs=stubs, vps=vps, replicates=1)
    )
    sweep = run_sweep(spec, jobs=1)
    return run_paper.render_all(
        sweep.results[run_paper.NOV2015],
        sweep.results[run_paper.QUIET],
        sweep.results[run_paper.JUNE2016],
    )


def test_renders_match_recorded_digests(run_paper):
    rendered = _render(run_paper, seed=7, stubs=120, vps=150)
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in rendered.items()
    }
    assert digests == RENDER_SHA256


def test_one_cleaned_cell_at_a_time(run_paper, monkeypatch):
    # AtlasDataset has slots and takes no weakref, so each cleaned
    # dataset is tracked through its kept-column index.  It holds its
    # aggregates, so an earlier cell's must be gone before the next
    # cell is cleaned.
    clean = run_paper.clean_dataset
    earlier: list[weakref.ref] = []

    def clean_tracked(dataset):
        gc.collect()
        alive = sum(ref() is not None for ref in earlier)
        assert not alive, f"{alive} earlier cleaned dataset still alive"
        cleaned, report = clean(dataset)
        earlier.append(weakref.ref(cleaned.columns))
        return cleaned, report

    monkeypatch.setattr(run_paper, "clean_dataset", clean_tracked)
    rendered = _render(run_paper, seed=7, stubs=120, vps=150)
    assert len(earlier) == 3
    assert {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in rendered.items()
    } == RENDER_SHA256


def _cell_digest(result):
    """SHA-256 of a cell's output arrays: names, dtypes, shapes, bytes."""
    h = hashlib.sha256()
    for name, array in sorted(result_arrays(result).items()):
        array = np.ascontiguousarray(array)
        h.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def test_cleaning_shares_the_cells_read_only(run_paper, monkeypatch):
    # Each cleaned dataset reads its cell's matrices through read-only
    # views, so rendering leaves every cell's output arrays as they
    # were (the benchmark digests the cells before it renders).
    spec = run_paper.paper_spec(
        argparse.Namespace(seed=7, stubs=120, vps=150, replicates=1)
    )
    results = run_sweep(spec, jobs=1).results
    before = [_cell_digest(r) for r in results]
    clean = run_paper.clean_dataset
    shared = []

    def clean_checked(dataset):
        cleaned, report = clean(dataset)
        for letter, raw in dataset.letters.items():
            view = cleaned._matrices[letter]
            for name in ("site_idx", "rtt_ms", "server"):
                matrix = getattr(view, name)
                assert np.shares_memory(matrix, getattr(raw, name))
                assert not matrix.flags.writeable
            shared.append(letter)
        return cleaned, report

    monkeypatch.setattr(run_paper, "clean_dataset", clean_checked)
    run_paper.render_all(*results)
    assert shared
    assert [_cell_digest(r) for r in results] == before


def test_each_aggregate_is_built_once_per_cell(run_paper, monkeypatch):
    builds: list[Counter] = []

    def counting(name, build):
        def counted(obs):
            builds[-1][name, obs.letter] += 1
            return build(obs)
        return counted

    clean = run_paper.clean_dataset

    def clean_counted(dataset):
        builds.append(Counter())
        return clean(dataset)

    monkeypatch.setattr(run_paper, "clean_dataset", clean_counted)
    for module, name in (
        (catchments, "_site_vps"), (rtt, "_letter_medians"),
        (flips, "_flips_per_bin"), (LetterObservations, "response_counts"),
    ):
        monkeypatch.setattr(
            module, name, counting(name, getattr(module, name))
        )
    rendered = _render(run_paper, seed=7, stubs=120, vps=150)
    assert set(rendered) == set(RENDER_SHA256)
    nov2015, quiet, june2016 = builds
    assert {n for n, _ in nov2015} == {
        "_site_vps", "_letter_medians", "_flips_per_bin", "response_counts"
    }
    assert set(quiet) == {
        (name, letter)
        for name in ("_site_vps", "response_counts")
        for letter in "EK"
    }
    assert set(june2016) == {("response_counts", L) for L in "BHKL"}
    for cell in builds:
        assert max(cell.values()) == 1, cell.most_common(3)


def test_all_nan_series_render_without_warnings(run_paper):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rendered = _render(run_paper, seed=0, stubs=60, vps=12)
    assert set(rendered) == set(RENDER_SHA256)
    # The tiny population really does leave whole series empty.
    assert "nan" in rendered["fig7_k_site_rtt"]
