"""RTT analyses (paper Figures 4, 7 and 13).

Median RTT of *successful* queries, at three granularities:

* per letter (Fig. 4) -- baseline differences reflect each letter's
  site footprint relative to the (Europe-biased) VPs; route shifts
  under stress move the median (H-Root's east-to-west coast step);
* per site (Fig. 7) -- overloaded absorbers show queueing delays of
  seconds (K-AMS: ~30 ms to 1-2 s);
* per server within a site (Fig. 13) -- uneven load behind one load
  balancer (K-NRT-S2 slower than its siblings).
"""

from __future__ import annotations

import numpy as np

from ..datasets.observations import AtlasDataset, LetterObservations
from .results import Series, SeriesBundle


def _median_ignoring_empty(
    values: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Per-bin median of *values* where *mask*; NaN for empty bins.

    A bin with a NaN among its selected values is NaN too, as
    ``np.median`` would give.

    One masked row sort replaces a ``np.median`` call per bin:
    unselected cells become +inf in the input dtype and sort last, so
    a bin with ``c`` selected values has its median at ``c // 2``, or
    the mean of ``c // 2 - 1`` and ``c // 2`` when ``c`` is even,
    computed in the input dtype as ``np.median`` does.
    """
    n_bins = values.shape[0]
    out = np.full(n_bins, np.nan)
    if values.shape[1] == 0:
        return out
    counts = np.count_nonzero(mask, axis=1)
    rows = np.where(mask, values, np.array(np.inf, dtype=values.dtype))
    rows.sort(axis=1)
    # Selected NaNs sort after the +inf fill, to the end of their row.
    bins = np.flatnonzero((counts > 0) & ~np.isnan(rows[:, -1]))
    c = counts[bins]
    medians = rows[bins, c // 2]
    even = c % 2 == 0
    medians[even] = (rows[bins[even], c[even] // 2 - 1] + medians[even]) / 2
    out[bins] = medians
    return out


def _letter_medians(obs: LetterObservations) -> tuple[np.ndarray, np.ndarray]:
    """Per bin: the median RTT of successful queries (NaN without one)
    and how many there were."""
    success = obs.success_mask()
    return (
        _median_ignoring_empty(obs.rtt_ms, success),
        np.count_nonzero(success, axis=1),
    )


def letter_rtt_series(dataset: AtlasDataset, letter: str) -> Series:
    """Per-bin median RTT of successful queries for one letter."""
    medians, _ = dataset.aggregate(letter, _letter_medians)
    return Series(name=letter, hours=dataset.grid.hours(), values=medians)


def rtt_figure(
    dataset: AtlasDataset, letters: list[str] | None = None
) -> SeriesBundle:
    """Figure 4: median RTT per letter."""
    if letters is None:
        letters = sorted(dataset.letters)
    return SeriesBundle(
        title="Fig. 4: median RTT of successful queries (ms)",
        series=tuple(letter_rtt_series(dataset, L) for L in letters),
    )


def rtt_significantly_changed(
    dataset: AtlasDataset,
    letter: str,
    factor: float = 1.8,
    min_delta_ms: float = 50.0,
    min_samples: int = 10,
) -> bool:
    """Whether a letter's median RTT moved significantly at any point.

    Requires both a relative (*factor*) and an absolute
    (*min_delta_ms*) excursion over the letter's own baseline, over
    bins with at least *min_samples* successful probes: medians over a
    handful of probes (A-Root's 30-minute cadence) are too noisy to
    interpret.  The paper omits letters with no significant change
    from Fig. 4.
    """
    medians, counts = dataset.aggregate(letter, _letter_medians)
    medians = np.where(counts >= min_samples, medians, np.nan)
    if np.isnan(medians).all():
        return False
    baseline = float(np.nanmedian(medians))
    if not np.isfinite(baseline) or baseline <= 0:
        return False
    peak = float(np.nanmax(medians))
    return peak > max(factor * baseline, baseline + min_delta_ms)


def site_rtt_series(dataset: AtlasDataset, letter: str, site: str) -> Series:
    """Figure 7: per-bin median RTT of one site's successful queries."""
    obs = dataset.letter(letter)
    at_site = obs.site_idx == obs.site_index(site)
    medians = _median_ignoring_empty(obs.rtt_ms, at_site)
    return Series(
        name=f"{letter}-{site}",
        hours=dataset.grid.hours(),
        values=medians,
    )


def site_rtt_figure(
    dataset: AtlasDataset, letter: str, sites: list[str]
) -> SeriesBundle:
    """Figure 7: median RTT for selected sites of one letter."""
    return SeriesBundle(
        title=f"Fig. 7: median RTT for selected {letter}-Root sites (ms)",
        series=tuple(site_rtt_series(dataset, letter, s) for s in sites),
    )


def server_rtt_series(
    dataset: AtlasDataset, letter: str, site: str
) -> SeriesBundle:
    """Figure 13: per-server median RTT at one site."""
    obs = dataset.letter(letter)
    hours = dataset.grid.hours()
    return SeriesBundle(
        title=f"Fig. 13: per-server median RTT at {letter}-{site} (ms)",
        series=tuple(
            Series(
                name=f"{letter}-{site}-S{srv}",
                hours=hours,
                values=_median_ignoring_empty(obs.rtt_ms, replies),
            )
            for srv, replies in obs.server_masks(site)
        ),
    )
