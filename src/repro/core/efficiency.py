"""Anycast catchment efficiency: do clients reach a nearby site?

The paper's related work (section 4) spans a decade of studies of
root anycast performance -- whether BGP actually routes clients to a
close site (Fan et al., Sarat et al., Ballani et al.).  This module
adds that lens to the reproduction: for every vantage point, compare
the geographic distance to the site that *answered* against the
nearest announced site, yielding a distance-inflation distribution
per letter.

Under stress this doubles as a routing-damage measure: withdrawals
push catchments to farther sites, visible as inflation growth during
the events (the mechanism behind the Fig. 4 RTT steps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.observations import AtlasDataset
from ..rootdns.deployment import LetterDeployment
from ..util.geo import haversine_km_vec
from .results import Series, TableResult
from .rtt import _median_ignoring_empty


@dataclass(frozen=True, slots=True)
class EfficiencyStats:
    """Catchment efficiency of one letter over a set of bins."""

    letter: str
    nearest_fraction: float
    median_inflation_km: float
    p90_inflation_km: float
    median_distance_km: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.nearest_fraction <= 1.0:
            raise ValueError("nearest_fraction must be within [0, 1]")


def _distances(
    dataset: AtlasDataset, deployment: LetterDeployment
) -> np.ndarray:
    """(n_vps, n_sites) great-circle distances."""
    vps = dataset.vps
    site_lats = np.array(
        [s.location.lat for s in deployment.spec.sites]
    )
    site_lons = np.array(
        [s.location.lon for s in deployment.spec.sites]
    )
    return haversine_km_vec(
        vps.lats[:, None], vps.lons[:, None],
        site_lats[None, :], site_lons[None, :],
    )


def _answer_distances(
    dataset: AtlasDataset, deployment: LetterDeployment
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell: the distance to the answering site, its inflation
    over the VP's nearest site (site 0 stands in where none answered)
    and the success mask that tells the two apart."""
    obs = dataset.letter(deployment.letter)
    distances = _distances(dataset, deployment)
    success = obs.success_mask()
    actual = distances[
        np.arange(obs.n_vps), np.where(success, obs.site_idx, 0)
    ]
    return actual, actual - distances.min(axis=1), success


def catchment_efficiency(
    dataset: AtlasDataset,
    deployment: LetterDeployment,
    bins: np.ndarray | None = None,
    nearest_tolerance_km: float = 100.0,
) -> EfficiencyStats:
    """Efficiency stats over *bins* (default: the whole window).

    A VP counts as "at the nearest site" when its answering site is
    within *nearest_tolerance_km* of its true nearest site's distance.
    """
    letter = deployment.letter
    actual, inflation, success = _answer_distances(dataset, deployment)
    if bins is not None:
        actual, inflation, success = (
            actual[bins], inflation[bins], success[bins]
        )
    if not success.any():
        raise ValueError(f"no successful observations for {letter}")
    actual, inflation = actual[success], inflation[success]
    return EfficiencyStats(
        letter=letter,
        nearest_fraction=float(
            (inflation <= nearest_tolerance_km).mean()
        ),
        median_inflation_km=float(np.median(inflation)),
        p90_inflation_km=float(np.percentile(inflation, 90)),
        median_distance_km=float(np.median(actual)),
    )


def efficiency_table(
    dataset: AtlasDataset,
    deployments: dict[str, LetterDeployment],
    bins: np.ndarray | None = None,
) -> TableResult:
    """Per-letter efficiency comparison."""
    rows: list[tuple[object, ...]] = []
    for letter in sorted(deployments):
        if letter not in dataset.letters:
            continue
        stats = catchment_efficiency(
            dataset, deployments[letter], bins
        )
        rows.append(
            (
                letter,
                round(stats.nearest_fraction, 2),
                round(stats.median_distance_km),
                round(stats.median_inflation_km),
                round(stats.p90_inflation_km),
            )
        )
    return TableResult(
        title="Anycast catchment efficiency (distance to answering site)",
        headers=("letter", "near-frac", "med km", "med infl", "p90 infl"),
        rows=tuple(rows),
    )


def inflation_series(
    dataset: AtlasDataset, deployment: LetterDeployment
) -> Series:
    """Per-bin median distance inflation for one letter.

    Rises when withdrawals push catchments to farther sites.  The
    medians come from the RTT figures' masked-median kernel: NaN in a
    bin where no site answered.
    """
    _, inflation, success = _answer_distances(dataset, deployment)
    return Series(
        name=f"{deployment.letter} inflation (km)",
        hours=dataset.grid.hours(),
        values=_median_ignoring_empty(inflation, success),
    )
