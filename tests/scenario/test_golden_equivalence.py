"""Golden-equivalence guard for the epoch-vectorized fast path.

``tests/scenario/golden/golden_engine.npz`` was generated from the
pre-fast-path engine (``scripts/make_golden.py``).  This test re-runs
the same seeded scenario and requires *bit-identical* truth series,
Atlas matrices, RSSAC counters, and BGPmon route changes -- proving
that caching, vectorization, and batched probing change no simulated
behaviour.

If this test fails after an engine change, the change altered
simulation semantics.  Either fix the regression or -- only for an
*intentional* semantic change -- regenerate the fixture and say so in
the PR.
"""

import pathlib
import sys

import numpy as np
import pytest

FIXTURE = pathlib.Path(__file__).parent / "golden" / "golden_engine.npz"
SCRIPTS = str(
    pathlib.Path(__file__).resolve().parent.parent.parent / "scripts"
)


@pytest.fixture(scope="module")
def golden():
    return np.load(FIXTURE)


@pytest.fixture(scope="module")
def fresh_arrays():
    sys.path.insert(0, SCRIPTS)
    try:
        from make_golden import golden_config, result_arrays
    finally:
        sys.path.remove(SCRIPTS)
    from repro.scenario.engine import simulate

    return result_arrays(simulate(golden_config()))


class TestGoldenEquivalence:
    def test_same_array_set(self, golden, fresh_arrays):
        assert set(golden.files) == set(fresh_arrays)

    def test_bit_identical_outputs(self, golden, fresh_arrays):
        mismatched = []
        for name in golden.files:
            want = golden[name]
            got = np.asarray(fresh_arrays[name])
            if want.shape != got.shape or want.dtype != got.dtype:
                mismatched.append(f"{name}: shape/dtype")
                continue
            if not np.array_equal(want, got, equal_nan=True):
                bad = ~(
                    (want == got)
                    | (
                        np.isnan(want) & np.isnan(got)
                        if np.issubdtype(want.dtype, np.floating)
                        else np.zeros(want.shape, dtype=bool)
                    )
                )
                mismatched.append(f"{name}: {int(bad.sum())} cells differ")
        assert not mismatched, "\n".join(mismatched)


class TestBatchModeEquivalence:
    """REPRO_ENGINE_BATCH=0 (per-bin reference loop) is the escape
    hatch for the segment-batched engine; both modes must reproduce
    the golden fixture bit for bit."""

    def test_batch_off_matches_golden(self, golden, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BATCH", "0")
        sys.path.insert(0, SCRIPTS)
        try:
            from make_golden import golden_config, result_arrays
        finally:
            sys.path.remove(SCRIPTS)
        from repro.scenario.engine import simulate

        arrays = result_arrays(simulate(golden_config()))
        assert set(golden.files) == set(arrays)
        for name in golden.files:
            assert np.array_equal(
                golden[name], np.asarray(arrays[name]), equal_nan=True
            ), name
