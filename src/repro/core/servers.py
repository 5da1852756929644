"""Per-server analysis within a site (paper Figure 12, section 3.5).

CHAOS identities name the individual server behind a site's load
balancer, so we can count how many VPs each server answers per bin
(``LetterObservations.server_masks`` splits a site's replies by
server).  The paper's observation: per-server visibility under stress differs
per site (K-FRA collapsed onto one server per event; K-NRT's three
servers all kept answering, degraded), so measurement studies must
look at *all* servers of a site.
"""

from __future__ import annotations

import numpy as np

from ..datasets.observations import AtlasDataset
from .results import Series, SeriesBundle


def server_reachability(
    dataset: AtlasDataset, letter: str, site: str
) -> SeriesBundle:
    """Fig. 12: VPs answered by each server of one site, per bin."""
    hours = dataset.grid.hours()
    return SeriesBundle(
        title=f"Fig. 12: per-server reachability at {letter}-{site}",
        series=tuple(
            Series(
                name=f"{letter}-{site}-S{srv}",
                hours=hours,
                values=replies.sum(axis=1).astype(np.float64),
            )
            for srv, replies in dataset.letter(letter).server_masks(site)
        ),
    )


def answering_servers_per_bin(
    dataset: AtlasDataset, letter: str, site: str
) -> Series:
    """How many distinct servers answered per bin at one site."""
    obs = dataset.letter(letter)
    counts = np.zeros(obs.n_bins, dtype=np.float64)
    for _, replies in obs.server_masks(site):
        counts += replies.any(axis=1)
    return Series(
        name=f"{letter}-{site} servers answering",
        hours=dataset.grid.hours(),
        values=counts,
    )


def shed_detected(
    dataset: AtlasDataset,
    letter: str,
    site: str,
    event_hours: tuple[float, float],
) -> bool:
    """Whether the site collapsed onto fewer servers during an event.

    True when the number of distinct answering servers during the
    event drops below its pre-event median (the K-FRA signature).
    """
    series = answering_servers_per_bin(dataset, letter, site)
    before = series.window(0.0, event_hours[0]).values
    during = series.window(*event_hours).values
    if before.size == 0 or during.size == 0:
        return False
    return float(np.median(during)) < float(np.median(before))
