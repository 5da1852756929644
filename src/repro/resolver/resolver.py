"""A recursive resolver: cache, letter selection, retry.

The DNS protocol's redundancy lives here (paper sections 2.3, 3.2.2,
3.4.1): a resolver that gets no answer from one letter retries at
another, and long-TTL delegations mean most user queries never reach
the root at all.  This is why "there were no known reports of
end-user visible errors" despite letters losing up to ~95 % of
queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .cache import TtlCache
from .rootview import RootSystemView
from .selection import Selector


class Outcome(enum.Enum):
    """How one user query was satisfied."""

    CACHE_HIT = "cache_hit"
    ROOT_OK = "root_ok"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class Resolution:
    """The result of resolving one user query."""

    outcome: Outcome
    latency_ms: float
    attempts: int
    letters_tried: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency cannot be negative")


@dataclass(frozen=True, slots=True)
class ResolverConfig:
    """Behavioural knobs of one resolver."""

    max_attempts: int = 4
    delegation_ttl_s: float = 172_800.0  # two days, like .com in 2015

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.delegation_ttl_s <= 0:
            raise ValueError("ttl must be positive")


class RecursiveResolver:
    """One resolver attached to a stub AS."""

    def __init__(
        self,
        stub_index: int,
        view: RootSystemView,
        selector: Selector,
        config: ResolverConfig,
        rng: np.random.Generator,
    ) -> None:
        self.stub_index = stub_index
        self.view = view
        self.selector = selector
        self.config = config
        self.rng = rng
        self.cache = TtlCache()

    def resolve(self, tld: str, timestamp: float) -> Resolution:
        """Resolve one user query for a name under *tld*."""
        if self.cache.get(tld, timestamp):
            return Resolution(
                outcome=Outcome.CACHE_HIT,
                latency_ms=0.0,
                attempts=0,
                letters_tried=(),
            )
        latency = 0.0
        tried: list[str] = []
        # Every attempt asks a letter not tried yet, so the retries
        # stop once every letter has failed.
        n_attempts = min(self.config.max_attempts, len(self.view.letters))
        for _ in range(n_attempts):
            letter = self.selector.pick(set(tried), self.rng)
            tried.append(letter)
            ok, rtt = self.view.query(
                letter, self.stub_index, timestamp, self.rng
            )
            latency += rtt
            if ok:
                self.selector.update(letter, rtt)
                self.cache.put(
                    tld, timestamp, self.config.delegation_ttl_s
                )
                return Resolution(
                    outcome=Outcome.ROOT_OK,
                    latency_ms=latency,
                    attempts=len(tried),
                    letters_tried=tuple(tried),
                )
            self.selector.penalize(letter)
        return Resolution(
            outcome=Outcome.FAILED,
            latency_ms=latency,
            attempts=len(tried),
            letters_tried=tuple(tried),
        )
