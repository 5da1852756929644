"""The RTT figures' masked-median kernel against ``np.median`` per row.

:func:`repro.core.rtt._median_ignoring_empty` replaces one
``np.median`` call per bin with one masked row sort.  The per-row loop
it replaced is kept below as the reference; Hypothesis draws float32
and float64 matrices with tied values, NaN cells inside and outside
the mask, all-masked rows and zero-VP matrices, and the two must agree
exactly.  ``rtt_significantly_changed``'s *min_samples* cut-off is
checked in ``test_kept_columns.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.rtt import _median_ignoring_empty


def reference_median(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The per-bin loop: ``np.median`` of each row's selected cells."""
    out = np.full(values.shape[0], np.nan)
    for b in range(values.shape[0]):
        selected = values[b][mask[b]]
        if selected.size:
            out[b] = np.median(selected)
    return out


@st.composite
def median_inputs(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(0, 8)), draw(st.integers(0, 12)))
    finite = st.floats(
        -1e6, 1e6, width=32 if dtype is np.float32 else 64
    )
    # A few repeated values make ties (and equal middle pairs) common.
    pool = draw(st.lists(finite, min_size=1, max_size=3))
    cell = st.one_of(finite, st.sampled_from(pool), st.just(np.nan))
    values = draw(arrays(dtype, shape, elements=cell))
    mask = draw(arrays(np.bool_, shape))
    for row in draw(st.sets(st.integers(0, max(shape[0] - 1, 0)))):
        if row < shape[0]:
            mask[row] = False
    return values, mask


@settings(max_examples=300)
@given(median_inputs())
def test_kernel_matches_per_row_np_median(inputs):
    values, mask = inputs
    got = _median_ignoring_empty(values, mask)
    want = reference_median(values, mask)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True), (got, want)
