"""Site-code picking as a per-site loop: the reference for the letter
registry's :func:`repro.rootdns.letters._pick_codes`.

Each missing site makes one scalar ``rng.choice`` call for its region
and rescans the chosen list for every airport of that region, falling
back to the first free airport of any region.  ``_pick_codes`` makes
all the region draws with one call and keeps the taken codes in a set;
``tests/rootdns/test_letters_reference.py`` pins it to this loop, RNG
state included.
"""

from __future__ import annotations

import numpy as np

from repro.util.airports import AIRPORTS


def pick_codes(
    rng: np.random.Generator,
    profile: dict[str, float],
    count: int,
    must_include: tuple[str, ...] = (),
    exclude: tuple[str, ...] = (),
) -> list[str]:
    """*count* airport codes, one region draw per site after
    *must_include*."""
    # Region-major deterministic ordering.
    by_region: dict[str, list[str]] = {}
    for code, ap in AIRPORTS.items():
        by_region.setdefault(ap.region, []).append(code)
    for codes in by_region.values():
        rng.shuffle(codes)
    chosen: list[str] = list(must_include)
    banned = set(exclude)
    regions = sorted(profile)
    weights = np.array([profile[r] for r in regions])
    weights = weights / weights.sum()
    while len(chosen) < count:
        region = regions[rng.choice(len(regions), p=weights)]
        pool = [
            c for c in by_region.get(region, [])
            if c not in chosen and c not in banned
        ]
        if not pool:
            pool = [
                c for codes in by_region.values() for c in codes
                if c not in chosen and c not in banned
            ]
            if not pool:
                raise ValueError(
                    f"airport table too small for {count} sites"
                )
        chosen.append(pool[0])
    return chosen
