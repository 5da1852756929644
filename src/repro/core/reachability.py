"""Per-letter reachability (paper Figure 3).

For each root letter, the number of vantage points receiving a
successful response in each ten-minute bin.  Letters probed less often
than the bin width (A-Root's 30-minute cadence at the time) are scaled
by their undersampling factor so the curves are comparable, exactly as
the paper scales A's observations.
"""

from __future__ import annotations

import numpy as np

from ..datasets.observations import AtlasDataset
from ..faults.quality import probe_gap_flags
from .results import Series, SeriesBundle


def letter_reachability(
    dataset: AtlasDataset, letter: str, scale_undersampled: bool = True
) -> Series:
    """VPs with successful queries per bin for one letter."""
    obs = dataset.letter(letter)
    successes = obs.success_mask().sum(axis=1).astype(np.float64)
    if scale_undersampled:
        probed = obs.probed_mask().sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(probed > 0, obs.n_vps / probed, 0.0)
        successes = successes * scale
    return Series(
        name=letter, hours=dataset.grid.hours(), values=successes
    )


def reachability_figure(
    dataset: AtlasDataset, letters: list[str] | None = None
) -> SeriesBundle:
    """Figure 3: one reachability series per letter.

    Bins where no VP probed a letter at all (controller outages,
    fleet-wide dropout) yield zero-valued points and are flagged on
    the bundle's ``quality`` rather than raising.
    """
    if letters is None:
        letters = sorted(dataset.letters)
    return SeriesBundle(
        title="Fig. 3: VPs with successful queries per 10-minute bin",
        series=tuple(
            letter_reachability(dataset, letter) for letter in letters
        ),
        quality=probe_gap_flags(dataset, letters, metric="reachability"),
    )


def worst_responsiveness(dataset: AtlasDataset, letter: str) -> float:
    """Smallest per-bin success count, normalised to the median.

    The paper's "worst responsiveness" measure (section 3.2.1): how
    far a letter's successful-VP count dipped relative to normal.
    """
    series = letter_reachability(dataset, letter)
    median = series.median()
    if not np.isfinite(median) or median <= 0:
        return 0.0
    return series.min() / median
