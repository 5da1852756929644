"""BGP route-change analysis (paper Figure 9 and section 3.4.1).

The BGPmon collectors log best-path changes per letter; this module
shapes them into the Fig. 9 series and quantifies how strongly route
churn concentrates inside the event windows -- the paper's evidence
that the flips of Fig. 8 are (partly) route withdrawals rather than
load-balancer artifacts.
"""

from __future__ import annotations

import numpy as np

from ..util.timegrid import Interval, TimeGrid
from .results import Series, SeriesBundle


def route_change_series(
    route_changes: dict[str, np.ndarray], grid: TimeGrid
) -> SeriesBundle:
    """Fig. 9: per-letter BGP updates per bin."""
    hours = grid.hours()
    series: list[Series] = []
    for letter in sorted(route_changes):
        counts = np.asarray(route_changes[letter], dtype=np.float64)
        if counts.shape != hours.shape:
            raise ValueError(f"{letter}: series length mismatch")
        series.append(Series(name=letter, hours=hours, values=counts))
    return SeriesBundle(
        title="Fig. 9: BGP route changes per 10-minute bin",
        series=tuple(series),
    )


def event_concentration(
    counts: np.ndarray,
    grid: TimeGrid,
    events: tuple[Interval, ...],
) -> float:
    """Fraction of all route churn that falls inside the bins of
    *events*, the run's own attack windows.

    1.0 means every update happened during an event; the expected
    value under uniform churn is the events' share of the window
    (about 7.6 % for the paper's 220 minutes over two days).
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return 0.0
    mask = grid.event_mask(events)
    return float(counts[mask].sum() / total)


def letters_with_event_churn(
    route_changes: dict[str, np.ndarray],
    grid: TimeGrid,
    events: tuple[Interval, ...],
    min_concentration: float = 0.35,
) -> list[str]:
    """Letters whose churn clearly concentrates in *events*.

    The paper reads Fig. 9 as event-driven route changes for letters
    C, E, F, G, H, J and K.  Post-event re-announcements land just
    outside the event windows, so the default threshold accepts
    series where a good third of the churn is event-aligned.
    """
    return [
        letter
        for letter in sorted(route_changes)
        if event_concentration(route_changes[letter], grid, events)
        >= min_concentration
        and route_changes[letter].sum() > 0
    ]
