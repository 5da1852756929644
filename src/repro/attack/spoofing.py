"""Spoofed source-address generation (packet-level).

The events' queries carried randomised IPv4 source addresses (paper
section 2.3: 895 M distinct addresses at A+J, "strongly suggesting
source address spoofing"), with a heavy concentration: the top 200
sources carried 68 % of the queries.  This module samples that mix at
packet granularity -- used by the wire-level server tests (RRL sees
repeated top sources but cannot touch the random remainder) and to
validate the analytic unique-source model against empirical draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def format_ipv4(addresses: np.ndarray) -> list[str]:
    """Render uint32 addresses as dotted quads."""
    addresses = np.asarray(addresses, dtype=np.uint32)
    return [
        f"{(a >> 24) & 0xFF}.{(a >> 16) & 0xFF}"
        f".{(a >> 8) & 0xFF}.{a & 0xFF}"
        for a in addresses
    ]


@dataclass(frozen=True, slots=True)
class SpoofedSourceModel:
    """The event's source-address mix.

    *top_sources* fixed addresses carry *top_share* of the packets
    (the un-spoofed or consistently spoofed heavy hitters); the rest
    are uniform random draws from a *pool_size* address space.
    """

    top_sources: int = 200
    top_share: float = 0.68
    pool_size: int = 2**31
    seed: int = 0

    def __post_init__(self) -> None:
        if self.top_sources < 0:
            raise ValueError("top_sources cannot be negative")
        if not 0.0 <= self.top_share <= 1.0:
            raise ValueError("top_share must be within [0, 1]")
        if self.pool_size <= 0:
            raise ValueError("pool_size must be positive")

    def _top_addresses(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(
            0, self.pool_size, size=self.top_sources, dtype=np.uint32
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *n* source addresses (uint32)."""
        if n < 0:
            raise ValueError("sample size cannot be negative")
        out = rng.integers(0, self.pool_size, size=n, dtype=np.uint32)
        if self.top_sources > 0 and self.top_share > 0:
            from_top = rng.random(n) < self.top_share
            tops = self._top_addresses()
            # Zipf-ish weighting within the top set.
            ranks = np.arange(1, self.top_sources + 1, dtype=np.float64)
            weights = ranks**-1.1
            weights /= weights.sum()
            picks = rng.choice(
                self.top_sources, size=int(from_top.sum()), p=weights
            )
            out[from_top] = tops[picks]
        return out
