"""Site catchment analyses (paper Table 2 "observed" and Figures 5-6).

A site's catchment, as seen from the measurement platform, is the set
of VPs whose CHAOS replies name that site.  The paper studies:

* how many sites are observed at all per letter (Table 2, right
  column);
* each site's minimum/maximum catchment over the window, normalised
  to its median (Fig. 5) -- dips mean withdrawal or loss, rises mean
  absorbed catchment from elsewhere;
* the full per-site time series with "critical" below-median episodes
  (Fig. 6).

Sites whose median catchment is below 20 VPs are flagged unstable, as
in section 2.4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.observations import AtlasDataset
from ..faults.quality import probe_gap_flags
from .results import Series, SeriesBundle, TableResult

#: Median-VP threshold below which per-site stats are unstable.
STABILITY_THRESHOLD = 20


def vps_per_site(dataset: AtlasDataset, letter: str) -> np.ndarray:
    """Matrix ``(n_bins, n_sites)``: VPs answered by each site."""
    obs = dataset.letter(letter)
    n_sites = len(obs.site_codes)
    counts = np.zeros((obs.n_bins, n_sites), dtype=np.int64)
    valid = obs.success_mask()
    for b in range(obs.n_bins):
        sites = obs.site_idx[b][valid[b]]
        if sites.size:
            counts[b] = np.bincount(sites, minlength=n_sites)
    return counts


def observed_site_count(dataset: AtlasDataset, letter: str) -> int:
    """Sites seen by at least one VP over the window (Table 2)."""
    counts = vps_per_site(dataset, letter)
    return int((counts.sum(axis=0) > 0).sum())


def observed_sites_table(dataset: AtlasDataset) -> TableResult:
    """Table 2's right column: observed sites per letter.

    Measurement gaps shrink what is observable; bins without any
    probing VP are flagged on the result's ``quality`` so low
    "observed" counts can be told apart from real withdrawals.
    """
    letters = sorted(dataset.letters)
    rows: list[tuple[object, ...]] = []
    for letter in letters:
        obs = dataset.letter(letter)
        rows.append(
            (letter, len(obs.site_codes), observed_site_count(dataset, letter))
        )
    return TableResult(
        title="Table 2: sites per letter (deployed vs observed)",
        headers=("letter", "deployed", "observed"),
        rows=tuple(rows),
        quality=probe_gap_flags(dataset, letters, metric="catchments"),
    )


@dataclass(frozen=True, slots=True)
class SiteCatchmentStats:
    """Fig. 5 numbers for one site."""

    site: str
    median: float
    minimum: int
    maximum: int

    @property
    def min_normalized(self) -> float:
        return self.minimum / self.median if self.median > 0 else np.nan

    @property
    def max_normalized(self) -> float:
        return self.maximum / self.median if self.median > 0 else np.nan

    @property
    def stable(self) -> bool:
        return self.median >= STABILITY_THRESHOLD


def site_minmax(
    dataset: AtlasDataset, letter: str
) -> list[SiteCatchmentStats]:
    """Fig. 5: per-site min/median/max, ordered by median descending."""
    obs = dataset.letter(letter)
    counts = vps_per_site(dataset, letter)
    medians = np.median(counts, axis=0)
    stats = [
        SiteCatchmentStats(
            site=f"{letter}-{code}",
            median=float(medians[i]),
            minimum=int(counts[:, i].min()),
            maximum=int(counts[:, i].max()),
        )
        for i, code in enumerate(obs.site_codes)
    ]
    stats.sort(key=lambda s: (-s.median, s.site))
    return stats


def site_minmax_table(dataset: AtlasDataset, letter: str) -> TableResult:
    """Fig. 5 as a table (normalised min/max per site)."""
    rows: list[tuple[object, ...]] = []
    for s in site_minmax(dataset, letter):
        rows.append(
            (
                s.site,
                s.median,
                round(s.min_normalized, 2) if s.median else float("nan"),
                round(s.max_normalized, 2) if s.median else float("nan"),
                "ok" if s.stable else "<20 VPs",
            )
        )
    return TableResult(
        title=f"Fig. 5: {letter}-Root site catchments (min/max vs median)",
        headers=("site", "median", "min/med", "max/med", "stability"),
        rows=tuple(rows),
        quality=probe_gap_flags(dataset, [letter], metric="catchments"),
    )


def site_timeseries(
    dataset: AtlasDataset, letter: str, stable_only: bool = False
) -> SeriesBundle:
    """Fig. 6: per-site catchment, normalised to the site median."""
    obs = dataset.letter(letter)
    counts = vps_per_site(dataset, letter)
    hours = dataset.grid.hours()
    medians = np.median(counts, axis=0)
    order = np.argsort(-medians, kind="stable")
    series: list[Series] = []
    for i in order:
        median = medians[i]
        if stable_only and median < STABILITY_THRESHOLD:
            continue
        normalised = counts[:, i] / median if median > 0 else (
            counts[:, i].astype(float)
        )
        series.append(
            Series(
                name=f"{letter}-{obs.site_codes[i]} ({int(median)})",
                hours=hours,
                values=normalised,
            )
        )
    return SeriesBundle(
        title=(
            f"Fig. 6: {letter}-Root per-site catchment "
            "(normalised to median)"
        ),
        series=tuple(series),
    )


def critical_episodes(
    dataset: AtlasDataset,
    letter: str,
    threshold: float = 0.5,
) -> dict[str, np.ndarray]:
    """Bins where a stable site fell below *threshold* of its median.

    These are the red below-median episodes of Fig. 6; returns a
    boolean per-bin mask per stable site.
    """
    obs = dataset.letter(letter)
    counts = vps_per_site(dataset, letter)
    medians = np.median(counts, axis=0)
    return {
        f"{letter}-{code}": counts[:, i] < threshold * medians[i]
        for i, code in enumerate(obs.site_codes)
        if medians[i] >= STABILITY_THRESHOLD
    }
