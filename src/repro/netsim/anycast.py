"""Anycast prefix state: which sites announce, and the resulting routes.

One :class:`AnycastPrefix` models one root letter's service address.
Sites can be withdrawn and re-announced over time (the paper's
"withdraw" policy and post-event recovery); the best-route table is
recomputed on demand and cached per announcement state, since the same
states recur (before/during/after each event).
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass

from .asgraph import ASGraph
from .bgp import Origin, RoutingTable, propagate

#: Default bound of the per-prefix routing-table cache.  Policy loops
#: cycle through a handful of announcement states, but fault-injected
#: runs (BgpSessionReset flapping different sites every bin) can visit
#: arbitrarily many distinct states; an unbounded cache would retain
#: every table for the life of a sweep worker.
DEFAULT_CACHE_SIZE = 64

#: Cache-path instrumentation, for tests and benchmarks: how routing()
#: requests were served.
PREFIX_CACHE_STATS: dict[str, int] = {
    "lru_hits": 0,
    # Always 0; kept only for the ``netsim.prefix_cache.memo_hits``
    # row that perfbench/child.py:40 reports.
    "memo_hits": 0,
    "computes": 0,
    # Always 0; kept only for the ``netsim.prefix_cache.delta_derived``
    # row that perfbench/tests/test_perfbench.py:144 requires.
    "delta_derived": 0,
}


@dataclass(frozen=True, slots=True)
class RouteChangeRecord:
    """One routing transition, for BGP collectors to observe."""

    timestamp: float
    changed_asns: frozenset[int]


class AnycastPrefix:
    """The announcement state of one anycast service (one letter)."""

    def __init__(
        self,
        graph: ASGraph,
        origins: list[Origin],
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if not origins:
            raise ValueError("an anycast prefix needs at least one origin")
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        sites = [o.site for o in origins]
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate site ids among origins")
        self.graph = graph
        self._origins = {o.site: o for o in origins}
        self._announced = {o.site: True for o in origins}
        self._blocked: dict[str, frozenset[int]] = {
            o.site: o.blocked_neighbors for o in origins
        }
        self._cache: OrderedDict[tuple, RoutingTable] = OrderedDict()
        self._cache_size = cache_size
        # The current state's key and table, built once per change.
        self._current_key: tuple | None = None
        self._current: RoutingTable | None = None
        self._change_log: list[RouteChangeRecord] = []

    @property
    def sites(self) -> list[str]:
        """All site ids, announced or not."""
        return list(self._origins)

    def origin(self, site: str) -> Origin:
        """The origin definition of *site*."""
        try:
            return self._origins[site]
        except KeyError:
            raise KeyError(f"unknown site {site!r}") from None

    def is_announced(self, site: str) -> bool:
        """Whether *site* currently announces the prefix."""
        if site not in self._origins:
            raise KeyError(f"unknown site {site!r}")
        return self._announced[site]

    def announced_sites(self) -> frozenset[str]:
        """The set of currently announced sites."""
        return frozenset(s for s, up in self._announced.items() if up)

    def blocked_neighbors(self, site: str) -> frozenset[int]:
        """Neighbors *site* currently refuses to export to."""
        if site not in self._origins:
            raise KeyError(f"unknown site {site!r}")
        return self._blocked[site]

    def state_key(self) -> tuple:
        """A hashable key of the current announcement state.

        Equal keys mean equal announced sites with equal export
        blocks, hence equal routes.  Callers that number or cache
        per-state results key on this rather than ``table.version``,
        which changes when an evicted state is recomputed.  The key
        object is built once per state change and shared with the
        routing-table cache.
        """
        if self._current_key is None:
            announced = self.announced_sites()
            self._current_key = (
                announced,
                tuple(sorted((s, self._blocked[s]) for s in announced)),
            )
        return self._current_key

    def routing(self) -> RoutingTable:
        """Best routes for the current announcement state (cached).

        Tables are cached per :meth:`state_key` in a bounded LRU
        (*cache_size* states), and the current table is additionally
        held until the next announce / withdraw / block change, making
        per-bin ``routing()`` calls O(1).  Recomputing an evicted
        state yields identical routes under a fresh ``version`` (see
        :class:`~repro.netsim.bgp.RoutingTable`), so ``version``-keyed
        caches stay correct and only recompute; anything that reaches
        outputs keys on :meth:`state_key` instead.
        """
        if self._current is not None:
            return self._current
        key = self.state_key()
        table = self._cache.get(key)
        if table is not None:
            PREFIX_CACHE_STATS["lru_hits"] += 1
            self._cache.move_to_end(key)
        else:
            table = self._compute(key)
            PREFIX_CACHE_STATS["computes"] += 1
            self._cache[key] = table
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        self._current = table
        return table

    def _compute(self, key: tuple) -> RoutingTable:
        """Propagate the announcement state *key* describes."""
        origins = [
            self._origins[s].with_blocked(self._blocked[s])
            for s in sorted(key[0])
        ]
        if not origins:
            return RoutingTable({})
        return propagate(self.graph, origins)

    def set_announced(self, site: str, up: bool, timestamp: float) -> bool:
        """Announce or withdraw *site*; log the routing delta.

        Returns ``True`` if the state actually changed.
        """
        if site not in self._origins:
            raise KeyError(f"unknown site {site!r}")
        if self._announced[site] == up:
            return False
        before = self.routing()
        self._announced[site] = up
        self._current_key = None
        self._current = None
        after = self.routing()
        changed = after.changes_from(before)
        if changed:
            self._change_log.append(
                RouteChangeRecord(
                    timestamp=timestamp, changed_asns=frozenset(changed)
                )
            )
        return True

    def set_blocked(
        self, site: str, blocked: frozenset[int], timestamp: float
    ) -> bool:
        """Partially withdraw: stop exporting to *blocked* neighbors.

        Returns ``True`` if the routing actually changed.  Passing an
        empty set restores full export.
        """
        if site not in self._origins:
            raise KeyError(f"unknown site {site!r}")
        if self._blocked[site] == blocked:
            return False
        before = self.routing()
        self._blocked[site] = blocked
        self._current_key = None
        self._current = None
        after = self.routing()
        changed = after.changes_from(before)
        if changed:
            self._change_log.append(
                RouteChangeRecord(
                    timestamp=timestamp, changed_asns=frozenset(changed)
                )
            )
        return True

    def withdraw(self, site: str, timestamp: float) -> bool:
        """Withdraw *site*'s announcement (the §2.2 withdraw policy)."""
        return self.set_announced(site, False, timestamp)

    def announce(self, site: str, timestamp: float) -> bool:
        """Re-announce *site* (post-event recovery)."""
        return self.set_announced(site, True, timestamp)

    def reset(self) -> None:
        """Restore the post-construction announcement state.

        Every site returns to announced with its original export
        policy and the change log empties; the routing-table cache is
        kept (tables are pure functions of graph + announcement state,
        and their ``version`` tokens never reach simulated outputs).
        Callers modelling standby sites must replay their initial
        withdrawals, as construction does.
        """
        for site, origin in self._origins.items():
            self._announced[site] = True
            self._blocked[site] = origin.blocked_neighbors
        self._current_key = None
        self._current = None
        self._change_log = []

    def snapshot(self) -> "AnycastPrefix":
        """A copy with its own announcement state and change log.

        The origins, the graph and the routing caches stay shared:
        tables are pure functions of graph + announcement state.
        """
        clone = copy.copy(self)
        clone._announced = dict(self._announced)
        clone._blocked = dict(self._blocked)
        clone._change_log = list(self._change_log)
        return clone

    def change_log(self) -> list[RouteChangeRecord]:
        """All routing transitions so far, in time order."""
        return list(self._change_log)

    def catchment_of(self, asn: int) -> str | None:
        """The site *asn* currently reaches, or ``None``."""
        return self.routing().site_of(asn)
