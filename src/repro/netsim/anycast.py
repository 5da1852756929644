"""Anycast prefix state: which sites announce, and the resulting routes.

One :class:`AnycastPrefix` models one root letter's service address.
Sites can be withdrawn and re-announced over time (the paper's
"withdraw" policy and post-event recovery); the best-route table is
recomputed on demand and cached per announcement set, since the same
sets recur (before/during/after each event).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import MutableMapping

from .asgraph import ASGraph
from .bgp import Origin, RoutingTable, propagate

#: Default bound of the per-prefix routing-table cache.  Policy loops
#: cycle through a handful of announcement states, but fault-injected
#: runs (BgpSessionReset flapping different sites every bin) can visit
#: arbitrarily many distinct states; an unbounded cache would retain
#: every table for the life of a sweep worker.
DEFAULT_CACHE_SIZE = 64

#: Bound of a shared (substrate-level) routing memo, when attached.
#: Larger than the per-prefix LRU because it serves every letter of a
#: substrate across sweep cells.
DEFAULT_MEMO_SIZE = 256

#: Cache-path instrumentation, for tests and benchmarks: how routing()
#: requests were served.
PREFIX_CACHE_STATS: dict[str, int] = {
    "lru_hits": 0,
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
        self._current: RoutingTable | None = None
        self._change_log: list[RouteChangeRecord] = []
        self._shared_memo: MutableMapping[tuple, RoutingTable] | None = None
        self._memo_label: object = None
        self._memo_size = DEFAULT_MEMO_SIZE

    def attach_shared_memo(
        self,
        memo: MutableMapping[tuple, RoutingTable],
        label: object,
        memo_size: int = DEFAULT_MEMO_SIZE,
    ) -> None:
        """Share *memo* as a second-level routing-table cache.

        The memo outlives this prefix's bounded LRU (and
        :meth:`reset`), so sweep cells that revisit an announcement
        state after eviction -- or after the substrate was handed to a
        different cell -- reuse the table instead of recomputing.
        Entries are keyed ``(label, state_key)``; *label* namespaces
        prefixes (letters) sharing one memo.  Reuse is output-invariant
        for the same reason LRU eviction is: tables are pure functions
        of graph + announcement state.
        """
        self._shared_memo = memo
        self._memo_label = label
        self._memo_size = memo_size

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

    def _state_key(self) -> tuple:
        announced = self.announced_sites()
        return (
            announced,
            tuple(sorted((s, self._blocked[s]) for s in announced)),
        )

    def routing(self) -> RoutingTable:
        """Best routes for the current announcement state (cached).

        The returned table carries a stable ``version`` token (see
        :class:`~repro.netsim.bgp.RoutingTable`): recurring
        announcement states return the *same* table object (while it
        stays cached), so callers can key their own caches on
        ``table.version``.  The current table is additionally memoized
        until the next announce / withdraw / block change, making
        per-bin ``routing()`` calls O(1).

        The cache is a bounded LRU (*cache_size* states): recomputing
        an evicted state yields a table with identical routes but a
        fresh ``version``, so downstream version-keyed caches recompute
        the same derived values -- eviction never changes outputs.
        """
        if self._current is not None:
            return self._current
        key = self._state_key()
        table = self._cache.get(key)
        if table is not None:
            PREFIX_CACHE_STATS["lru_hits"] += 1
            self._cache.move_to_end(key)
        else:
            memo = self._shared_memo
            if memo is not None:
                table = memo.get((self._memo_label, key))
            if table is not None:
                PREFIX_CACHE_STATS["memo_hits"] += 1
            else:
                table = self._compute(key)
                PREFIX_CACHE_STATS["computes"] += 1
                if memo is not None:
                    memo[(self._memo_label, key)] = table
                    while len(memo) > self._memo_size:
                        memo.pop(next(iter(memo)))
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
        self._current = None
        self._change_log = []

    def change_log(self) -> list[RouteChangeRecord]:
        """All routing transitions so far, in time order."""
        return list(self._change_log)

    def catchment_of(self, asn: int) -> str | None:
        """The site *asn* currently reaches, or ``None``."""
        return self.routing().site_of(asn)
