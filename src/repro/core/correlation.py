"""Site count vs resilience correlation (paper section 3.2.1).

The paper reports a strong correlation (R^2 = 0.87) between how many
sites a letter operates and its worst responsiveness during the
events: more sites means more aggregate capacity and better isolation
of attack traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.observations import AtlasDataset
from ..faults.quality import QualityFlag
from .reachability import worst_responsiveness
from .results import TableResult


@dataclass(frozen=True, slots=True)
class SitesResilienceFit:
    """Linear fit of worst responsiveness against log site count."""

    letters: tuple[str, ...]
    site_counts: tuple[int, ...]
    worst: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    #: Degradation annotations (a NaN fit carries at least one flag).
    quality: tuple[QualityFlag, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.quality)


def sites_vs_resilience(
    dataset: AtlasDataset,
    site_counts: dict[str, int],
    exclude: tuple[str, ...] = ("A",),
) -> SitesResilienceFit:
    """Fit worst responsiveness vs log10(site count) across letters.

    *site_counts* maps letters to deployed site counts (Table 2).
    A-Root is excluded by default, as in the paper (its 30-minute
    probing cadence makes its dip unobservable).

    With fewer than three usable letters (missing observations, heavy
    exclusions), or with one site count shared by every letter, no
    line can be fit; the result degrades to NaN fit parameters with a
    quality flag instead of raising, keeping the per-letter
    worst-responsiveness numbers that do exist.  When every letter has
    the same worst responsiveness the line is flat: slope and
    intercept are kept, and R^2 is NaN with a quality flag.
    """
    letters = [
        letter
        for letter in sorted(dataset.letters)
        if letter in site_counts and letter not in exclude
    ]
    counts = np.array([site_counts[letter] for letter in letters])
    worst = np.array(
        [worst_responsiveness(dataset, letter) for letter in letters]
    )
    slope = intercept = r_squared = np.nan
    problem: str | None = None
    if len(letters) < 3:
        problem = (
            f"only {len(letters)} usable letter(s); need three for a fit"
        )
    elif np.all(counts == counts[0]):
        problem = (
            f"all {len(letters)} usable letters have {counts[0]} sites; "
            "a line needs two site counts"
        )
    else:
        slope, intercept, rvalue = _linregress(np.log10(counts), worst)
        r_squared = rvalue**2
        if np.isnan(r_squared):
            problem = (
                "worst responsiveness is the same for all "
                f"{len(letters)} letters"
            )
    quality: tuple[QualityFlag, ...] = ()
    if problem is not None:
        quality = (
            QualityFlag(
                metric="correlation",
                detail=f"{problem} -- R^2 is undefined",
            ),
        )
    return SitesResilienceFit(
        letters=tuple(letters),
        site_counts=tuple(int(c) for c in counts),
        worst=tuple(float(w) for w in worst),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        quality=quality,
    )


def _linregress(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, float, float]:
    """Least-squares line through (x, y): ``(slope, intercept, r)``.

    The point estimates of ``scipy.stats.linregress`` (SciPy 1.17),
    repeating its arithmetic op for op so every fit is bit-identical
    to SciPy's.  The caller rules out a constant *x*, where SciPy
    raises; a constant *y* gives a zero slope and ``r = nan``, as in
    SciPy.
    """
    xmean = np.mean(x)
    ymean = np.mean(y)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:  # repro: noqa COR002 -- SciPy's own exact-zero test, kept for bit-identity
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    intercept = ymean - slope * xmean
    return slope, intercept, r


def correlation_table(fit: SitesResilienceFit) -> TableResult:
    """The fit as a table, letters plus the R^2 row."""
    rows = [
        (letter, fit.site_counts[i], round(fit.worst[i], 3))
        for i, letter in enumerate(fit.letters)
    ]
    rows.append(("R^2", "-", round(fit.r_squared, 3)))
    return TableResult(
        title="Sites vs worst responsiveness (section 3.2.1)",
        headers=("letter", "sites", "worst/median"),
        rows=tuple(rows),
        quality=fit.quality,
    )
