"""Baseline (legitimate) query workload against the root letters.

Legitimate root traffic comes from recursive resolvers spread across
edge networks.  Against the events' 100x load it is nearly irrelevant
for overload (section 2.2 explicitly neglects it), but it matters for:

* RSSAC-002 baselines (Table 3's right column),
* the .nl collateral-damage series (Fig. 15 plots *query rates*),
* the "letter flip" effect: queries failing at an attacked letter are
  retried at another letter, which is how unattacked L-Root saw a
  1.66x query-rate increase during the second event (section 3.2.2).

The diurnal shape is a simple sinusoid; resolvers are uniform across
stub ASes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..netsim.bgp import RoutingTable
from ..util.timegrid import EVENT_WINDOW_START

#: Fraction of a failed query's load that is retried at other letters.
#: Resolvers retry aggressively (section 3.4.1), but caching and give-up
#: timers keep the retried share below 1.
RETRY_SPILL_FRACTION = 0.8


@dataclass(frozen=True, slots=True)
class BaselineWorkload:
    """Per-letter legitimate load with a diurnal cycle.

    Parameters
    ----------
    base_qps:
        Mean legitimate query rate for the letter.
    diurnal_amplitude:
        Relative swing of the day/night cycle.
    peak_utc_hour:
        Hour of day (UTC) when traffic peaks.
    """

    base_qps: float
    diurnal_amplitude: float = 0.15
    peak_utc_hour: float = 14.0

    def __post_init__(self) -> None:
        if self.base_qps < 0:
            raise ValueError("baseline rate cannot be negative")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("amplitude must be within [0, 1)")

    def rate_at(self, timestamp: float) -> float:
        """Legitimate query rate at *timestamp* (POSIX seconds)."""
        hour = ((timestamp - EVENT_WINDOW_START) / 3600.0) % 24.0
        phase = 2.0 * np.pi * (hour - self.peak_utc_hour) / 24.0
        return self.base_qps * (1.0 + self.diurnal_amplitude * np.cos(phase))

    def rates_at(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rate_at`."""
        timestamps = np.asarray(timestamps, dtype=np.float64)
        hours = ((timestamps - EVENT_WINDOW_START) / 3600.0) % 24.0
        phase = 2.0 * np.pi * (hours - self.peak_utc_hour) / 24.0
        return self.base_qps * (1.0 + self.diurnal_amplitude * np.cos(phase))


def legit_shares_by_site(
    table: RoutingTable, stub_asns: list[int]
) -> dict[str, float]:
    """Fraction of legitimate traffic arriving at each site.

    Resolvers are uniform over stub ASes; each stub contributes its
    1/N share to whichever site its catchment selects.
    """
    if not stub_asns:
        raise ValueError("need at least one stub AS")
    shares: dict[str, float] = {}
    per_stub = 1.0 / len(stub_asns)
    for asn in stub_asns:
        site = table.site_of(asn)
        if site is None:
            continue
        shares[site] = shares.get(site, 0.0) + per_stub
    return shares


def legit_share_vector(
    table: RoutingTable,
    stub_asns: list[int],
    site_index: dict[str, int],
) -> tuple[np.ndarray, float]:
    """``(per-site share vector, total routed share)``.

    Array variant of :func:`legit_shares_by_site` for the engine's
    per-epoch cache, bit-identical to scattering the dict: the
    catchment gather is vectorised and ``np.add.at`` adds the 1/N
    stub share per occurrence in stub order -- the dict variant's
    exact addition sequence.  The total is summed over sites in
    first-appearance (dict insertion) order, keeping it bit-identical
    to ``sum(shares.values())`` (the engine derives the unrouted
    fraction from it).
    """
    if not stub_asns:
        raise ValueError("need at least one stub AS")
    per_stub = 1.0 / len(stub_asns)
    rows = table.sites_of(
        np.asarray(stub_asns, dtype=np.int64), site_index
    )
    routed = rows[rows >= 0]
    vector = np.zeros(len(site_index), dtype=np.float64)
    np.add.at(vector, routed, per_stub)
    uniq, first = np.unique(routed, return_index=True)
    order = uniq[np.argsort(first, kind="stable")]
    return vector, sum(float(vector[site]) for site in order)


def retry_targets(letters: list[str]) -> dict[str, list[str]]:
    """Each letter's retry targets: every other letter, in order."""
    return {
        source: [letter for letter in letters if letter != source]
        for source in letters
    }


def retry_spill(
    lost_legit_qps: dict[str, float],
    letters: list[str],
    targets: dict[str, list[str]] | None = None,
) -> dict[str, float]:
    """Redistribute failed legitimate queries to other letters.

    Returns extra query rate per letter.  A letter's own losses never
    come back to itself; resolver retries spread across the other
    twelve letters evenly (resolver selection policies differ; a
    uniform spread is the neutral assumption, documented in DESIGN.md).
    *targets* is :func:`retry_targets` of *letters*; the engine calls
    this once per bin, so it builds them once per run and passes them.
    """
    others_of = targets if targets is not None else retry_targets(letters)
    extra = {letter: 0.0 for letter in letters}
    for source, lost in lost_legit_qps.items():
        if lost < 0:
            raise ValueError("lost rate cannot be negative")
        others = others_of.get(source)
        if others is None:
            others = [letter for letter in letters if letter != source]
        if not others:
            continue
        share = lost * RETRY_SPILL_FRACTION / len(others)
        for letter in others:
            extra[letter] += share
    return extra
