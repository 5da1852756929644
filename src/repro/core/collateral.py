"""Collateral damage analysis (paper Figures 14-15, section 3.6).

Shared facilities cannot be observed directly (hosting details are
proprietary), so the paper assesses shared risk *end to end*: it looks
for service degradation, time-correlated with the events, in services
that were not attacked:

* **D-Root sites** (Fig. 14) -- D was not attacked; sites with at
  least a 10 % reachability dip during the events and at least 20 VPs
  of regular catchment are flagged as collateral suspects;
* **.nl anycast nodes** (Fig. 15) -- the nodes co-located with root
  sites go nearly silent during the events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.observations import AtlasDataset
from ..scenario.nl import NlService
from ..util.timegrid import Interval, TimeGrid
from .catchments import STABILITY_THRESHOLD, vps_per_site
from .results import Series, SeriesBundle

#: Minimum reachability dip to flag a site (Fig. 14: "at least 10 %").
MIN_DIP_FRACTION = 0.10


@dataclass(frozen=True, slots=True)
class CollateralSite:
    """One unattacked site showing an event-correlated dip."""

    site: str
    median_vps: float
    event_min_vps: int
    dip_fraction: float


def collateral_sites(
    dataset: AtlasDataset,
    letter: str,
    events: tuple[Interval, ...],
    min_dip: float = MIN_DIP_FRACTION,
    min_vps: int = STABILITY_THRESHOLD,
) -> list[CollateralSite]:
    """Fig. 14 candidates: sites of *letter* dipping during *events*,
    the run's own attack windows (``ScenarioResult.event_intervals``)."""
    obs = dataset.letter(letter)
    counts = vps_per_site(dataset, letter)
    event_mask = dataset.grid.event_mask(events)
    if not event_mask.any():
        raise ValueError("grid does not cover the event windows")
    medians = np.median(counts, axis=0)
    flagged: list[CollateralSite] = []
    for i, code in enumerate(obs.site_codes):
        median = float(medians[i])
        if median < min_vps:
            continue
        event_min = int(counts[event_mask, i].min())
        dip = 1.0 - event_min / median
        if dip >= min_dip:
            flagged.append(
                CollateralSite(
                    site=f"{letter}-{code}",
                    median_vps=median,
                    event_min_vps=event_min,
                    dip_fraction=dip,
                )
            )
    flagged.sort(key=lambda s: -s.dip_fraction)
    return flagged


def collateral_figure(
    dataset: AtlasDataset, letter: str, events: tuple[Interval, ...]
) -> SeriesBundle:
    """Fig. 14: reachability series of the sites flagged over
    *events* (see :func:`collateral_sites`)."""
    flagged = collateral_sites(dataset, letter, events)
    counts = vps_per_site(dataset, letter)
    obs = dataset.letter(letter)
    hours = dataset.grid.hours()
    series: list[Series] = []
    for site in flagged:
        index = obs.site_index(site.site.split("-", 1)[1])
        series.append(
            Series(
                name=site.site,
                hours=hours,
                values=counts[:, index].astype(np.float64),
            )
        )
    return SeriesBundle(
        title=f"Fig. 14: affected {letter}-Root sites (absolute VPs)",
        series=tuple(series),
    )


def nl_figure(nl: NlService) -> SeriesBundle:
    """Fig. 15: normalised .nl query rates per node."""
    normalised = nl.normalized_series()
    hours = nl.grid.hours()
    series = tuple(
        Series(name=label, hours=hours, values=normalised[:, i])
        for i, label in enumerate(nl.node_labels)
    )
    return SeriesBundle(
        title="Fig. 15: normalised .nl query rates per node",
        series=series,
    )


def nl_event_minimum(
    nl: NlService, node: str, events: tuple[Interval, ...]
) -> float:
    """A node's lowest normalised rate inside the *events* windows."""
    try:
        index = nl.node_labels.index(node)
    except ValueError:
        raise KeyError(f"unknown .nl node {node!r}") from None
    mask = nl.grid.event_mask(events)
    return float(nl.normalized_series()[mask, index].min())


def silence_score(
    series: Series, grid: TimeGrid, events: tuple[Interval, ...]
) -> float:
    """How silent a service went during *events* (0 = unaffected,
    1 = completely silent): one minus the event-window minimum of the
    normalised series."""
    mask = grid.event_mask(events)
    if series.values.shape[0] != grid.n_bins:
        raise ValueError("series does not match grid")
    return float(1.0 - np.nanmin(series.values[mask]))
