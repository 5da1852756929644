"""``Series.sparkline`` against the per-bucket loop it replaced.

The sparkline averages a long series into *width* buckets.  It takes
one gather and one row mean per distinct bucket length instead of a
``mean()`` per bucket; a row mean sums each bucket as the slice mean
did, so the bucket means must match bit for bit and the rendered
characters exactly.  (A rendering alone would hide last-bit
differences: ``np.add.reduceat`` sums in another order and still draws
the same characters on most series.)  Hypothesis draws series shorter
than, as long as and longer than the width, with NaN cells, values
spanning many magnitudes and constant runs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.results import _SPARK, Series, _bucket_means


def reference_bucket_means(values: np.ndarray, width: int) -> np.ndarray:
    """The per-bucket loop: one slice ``mean()`` per bucket."""
    edges = np.linspace(0, values.size, width + 1, dtype=int)
    return np.array(
        [
            values[a:b].mean() if b > a else 0.0
            for a, b in zip(edges, edges[1:])
        ]
    )


def reference_sparkline(values: np.ndarray, width: int) -> str:
    """The sparkline over the per-bucket loop's means."""
    if values.size == 0:
        return ""
    values = np.nan_to_num(values, nan=0.0)
    if values.size > width:
        values = reference_bucket_means(values, width)
    low, high = values.min(), values.max()
    span = high - low if high > low else 1.0
    levels = ((values - low) / span * (len(_SPARK) - 1)).astype(int)
    return "".join(_SPARK[level] for level in levels)


@st.composite
def series(draw):
    width = draw(st.integers(1, 80))
    size = draw(st.one_of(
        st.integers(0, width), st.integers(width + 1, 1500)
    ))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e7]))
    cell = st.one_of(
        st.floats(-1.0, 1.0).map(lambda x: x * scale),
        st.just(np.nan),
        st.just(0.0),
    )
    values = draw(arrays(np.float64, size, elements=cell))
    return values, width


@settings(max_examples=300)
@given(series())
def test_sparkline_matches_per_bucket_means(drawn):
    values, width = drawn
    s = Series("s", np.arange(values.size, dtype=np.float64), values)
    assert s.sparkline(width) == reference_sparkline(values, width)
    if values.size > width:
        filled = np.nan_to_num(values, nan=0.0)
        got = _bucket_means(filled, width)
        want = reference_bucket_means(filled, width)
        assert got.tobytes() == want.tobytes(), (got, want)
