"""Site flips: client-side evidence of routing stress (paper §3.4).

A *site flip* is a vantage point changing anycast site between
consecutive observations.  Flips should be rare in steady state; the
events produce bursts of them (Fig. 8).  Following the flips of
specific origin sites reveals where their catchments went (Fig. 10:
70-80 % of K-LHR/K-FRA shifters landed on K-AMS and returned after),
and per-VP timelines expose the behaviour classes of Fig. 11: VPs
"stuck" on a degraded site, VPs that shift and return, VPs that shift
permanently, and VPs that simply fail.

Figs. 10 and 11 both start from each VP's modal site before the
event: one bincount over every VP finds it (``_modal_sites``), and
only the VPs whose modal site is an origin are visited, in column
order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..datasets.observations import AtlasDataset, LetterObservations
from ..util.timegrid import Interval
from .results import Series, SeriesBundle


def _site_track(obs_site_idx: np.ndarray) -> np.ndarray:
    """Per-VP site track with non-site bins carried as -1."""
    return np.maximum(obs_site_idx, -1, dtype=np.int64)


def _modal_sites(track: np.ndarray, n_sites: int) -> np.ndarray:
    """Each VP's (column's) most frequent site in *track*, the lowest
    index on ties as ``np.bincount(...).argmax()`` takes it; -1 for a
    VP with no site in *track*."""
    n_vps = track.shape[1]
    # One row of n_sites + 1 counters per VP; counter 0 takes the
    # non-site (-1) bins and is dropped.
    keys = track + 1 + np.arange(n_vps) * (n_sites + 1)
    counts = np.bincount(
        keys.ravel(), minlength=n_vps * (n_sites + 1)
    ).reshape(n_vps, n_sites + 1)[:, 1:]
    return np.where(counts.any(axis=1), counts.argmax(axis=1), -1)


def _flips_per_bin(obs: LetterObservations) -> np.ndarray:
    """Site flips per bin: VPs whose site differs from the site of
    their most recent prior successful observation."""
    track = _site_track(obs.site_idx)
    n_bins, n_vps = track.shape
    flips = np.zeros(n_bins, dtype=np.int64)
    last_site = np.full(n_vps, -1, dtype=np.int64)
    for b in range(n_bins):
        current = track[b]
        have_site = current >= 0
        flipped = have_site & (last_site >= 0) & (current != last_site)
        flips[b] = int(flipped.sum())
        last_site[have_site] = current[have_site]
    return flips


def count_flips(dataset: AtlasDataset, letter: str) -> Series:
    """Fig. 8: number of site flips per bin for one letter.

    A flip is counted in bin *b* when a VP's site in *b* differs from
    the site of its most recent prior successful observation.
    """
    return Series(
        name=letter,
        hours=dataset.grid.hours(),
        values=dataset.aggregate(letter, _flips_per_bin).astype(np.float64),
    )


def flips_figure(
    dataset: AtlasDataset, letters: list[str] | None = None
) -> SeriesBundle:
    """Fig. 8: site flips per letter."""
    if letters is None:
        letters = sorted(dataset.letters)
    return SeriesBundle(
        title="Fig. 8: site flips per 10-minute bin",
        series=tuple(count_flips(dataset, L) for L in letters),
    )


def flip_destinations(
    dataset: AtlasDataset,
    letter: str,
    origin_site: str,
    interval_hours: tuple[float, float],
) -> Counter:
    """Fig. 10: where VPs that left *origin_site* went.

    Considers VPs whose pre-interval modal site is *origin_site* and
    returns the distribution of sites they appear at during the
    interval (excluding the origin itself); failures count as
    ``"(no reply)"``.
    """
    obs = dataset.letter(letter)
    origin_idx = obs.site_index(origin_site)
    hours = dataset.grid.hours()
    before = hours < interval_hours[0]
    during = (hours >= interval_hours[0]) & (hours < interval_hours[1])
    if not before.any() or not during.any():
        raise ValueError("interval leaves no before/during bins")

    track = _site_track(obs.site_idx)
    modal = _modal_sites(track[before], len(obs.site_codes))
    seen_during = track[during]
    destinations: Counter = Counter()
    for vp in np.flatnonzero(modal == origin_idx):
        seen = seen_during[:, vp]
        answered = seen[seen >= 0]
        moved = answered[answered != origin_idx]
        if moved.size:
            dest = np.bincount(moved).argmax()
            destinations[f"{letter}-{obs.site_codes[int(dest)]}"] += 1
        elif answered.size == 0:
            destinations["(no reply)"] += 1
        else:
            destinations[f"{letter}-{origin_site} (stuck)"] += 1
    return destinations


#: Fig. 11 behaviour classes.
BEHAVIOR_STUCK = "stuck"            # stays at origin, degraded
BEHAVIOR_SHIFT_RETURN = "shift+return"
BEHAVIOR_SHIFT_STAY = "shift+stay"
BEHAVIOR_FAILED = "failed"          # no replies during the event
BEHAVIOR_UNAFFECTED = "unaffected"


@dataclass(frozen=True, slots=True)
class VpTimeline:
    """One VP's journey around an event (Fig. 11 row)."""

    vp_id: int
    origin_site: str
    behavior: str
    sites: tuple[str | None, ...]  # per bin: site code or None


def classify_behaviour(
    pre_modal: int,
    during: np.ndarray,
    after: np.ndarray,
) -> str:
    """Classify one VP given its origin and event-window tracks."""
    answered = during[during >= 0]
    if answered.size == 0:
        return BEHAVIOR_FAILED
    moved = answered[answered != pre_modal]
    if moved.size == 0:
        return BEHAVIOR_STUCK if (during < 0).any() else BEHAVIOR_UNAFFECTED
    post = after[after >= 0]
    if post.size and np.bincount(post).argmax() == pre_modal:
        return BEHAVIOR_SHIFT_RETURN
    return BEHAVIOR_SHIFT_STAY


def vp_timelines(
    dataset: AtlasDataset,
    letter: str,
    origin_sites: list[str],
    event: Interval,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[VpTimeline]:
    """Fig. 11: per-VP site timelines for VPs starting at given sites.

    Returns one timeline per VP whose modal site before *event* (one
    of the run's own attack windows) is one of *origin_sites*, in VP
    column order, optionally down-sampled to *sample* VPs.
    """
    obs = dataset.letter(letter)
    origin_idx = {obs.site_index(site): site for site in origin_sites}

    hours = dataset.grid.hours()
    ev_start, ev_end = event.hours_after(dataset.grid.start)
    before = hours < ev_start
    during = (hours >= ev_start) & (hours < ev_end)
    after = hours >= ev_end

    track = _site_track(obs.site_idx)
    modal = _modal_sites(track[before], len(obs.site_codes))
    # Track value -1 picks the trailing None.
    codes = np.array([*obs.site_codes, None], dtype=object)
    timelines: list[VpTimeline] = []
    for vp in np.flatnonzero(np.isin(modal, list(origin_idx))):
        origin = int(modal[vp])
        timelines.append(
            VpTimeline(
                vp_id=int(dataset.vps.ids[vp]),
                origin_site=origin_idx[origin],
                behavior=classify_behaviour(
                    origin, track[during, vp], track[after, vp]
                ),
                sites=tuple(codes[track[:, vp]]),
            )
        )
    if sample is not None and len(timelines) > sample:
        if rng is None:
            rng = np.random.default_rng(0)
        keep = rng.choice(len(timelines), size=sample, replace=False)
        timelines = [timelines[i] for i in sorted(keep)]
    return timelines


def behaviour_census(timelines: list[VpTimeline]) -> Counter:
    """Counts per behaviour class (the Fig. 11 group sizes)."""
    return Counter(t.behavior for t in timelines)
