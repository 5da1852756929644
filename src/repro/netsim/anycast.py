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

#: A prefix's announcement state, as :meth:`AnycastPrefix.run_state`
#: returns it: whether each site announces, and the neighbors each
#: site refuses to export to.
PrefixState = tuple[dict[str, bool], dict[str, frozenset[int]]]


class AnycastPrefix:
    """The announcement state of one anycast service (one letter).

    Every site starts announced with its origin's export policy,
    except the sites named in *withdrawn* (standby sites such as
    H-Root's backup), which start withdrawn.  The prefix keeps no
    history: :meth:`repro.rootdns.deployment.LetterDeployment.act`
    records every change it makes.
    """

    def __init__(
        self,
        graph: ASGraph,
        origins: list[Origin],
        cache_size: int = DEFAULT_CACHE_SIZE,
        withdrawn: frozenset[str] = frozenset(),
    ) -> None:
        if not origins:
            raise ValueError("an anycast prefix needs at least one origin")
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        sites = [o.site for o in origins]
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate site ids among origins")
        unknown = sorted(set(withdrawn) - set(sites))
        if unknown:
            raise ValueError(f"unknown withdrawn sites {unknown}")
        self.graph = graph
        self._origins = {o.site: o for o in origins}
        self._announced = {s: s not in withdrawn for s in self._origins}
        self._blocked = {
            s: o.blocked_neighbors for s, o in self._origins.items()
        }
        self._cache: OrderedDict[tuple, RoutingTable] = OrderedDict()
        self._cache_size = cache_size
        # The current state's key and table, built once per change.
        self._current_key: tuple | None = None
        self._current: RoutingTable | None = None

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
        blocks, hence equal routes, so anything derived from the
        announcement state (routing tables, epoch numbers, the
        deployment's quiet and announced-mask memos) keys on it.  The
        key object is built once per state change and shared with the
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
        state yields equal routes in a new table object, so caches
        keyed on the table object only recompute; anything that
        reaches outputs keys on :meth:`state_key` instead.  The first
        table finishes the graph: it refuses edits from then on.
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
        return propagate(self.graph, origins)

    def set_announced(self, site: str, up: bool) -> frozenset[int] | None:
        """Announce or withdraw *site*.

        Returns the ASes whose best route moved (possibly none), or
        ``None`` if *site* already was in that state.
        """
        if site not in self._origins:
            raise KeyError(f"unknown site {site!r}")
        if self._announced[site] == up:
            return None
        before = self.routing()
        self._announced[site] = up
        return self._changes_from(before)

    def set_blocked(
        self, site: str, blocked: frozenset[int]
    ) -> frozenset[int] | None:
        """Stop exporting *site*'s announcement to *blocked* neighbors
        (an empty set restores full export).

        Returns the ASes whose best route moved (possibly none), or
        ``None`` if *site* already blocked exactly *blocked*.
        """
        if site not in self._origins:
            raise KeyError(f"unknown site {site!r}")
        if self._blocked[site] == blocked:
            return None
        before = self.routing()
        self._blocked[site] = blocked
        return self._changes_from(before)

    def _changes_from(self, before: RoutingTable) -> frozenset[int]:
        """Route the just-edited state; the ASes moved since *before*."""
        self._current_key = None
        self._current = None
        return frozenset(self.routing().changes_from(before))

    def run_state(self) -> PrefixState:
        """The announcement state: ``(announced, blocked)``, each keyed
        by site in origin order."""
        return dict(self._announced), dict(self._blocked)

    def snapshot(self, state: PrefixState | None = None) -> "AnycastPrefix":
        """A copy with its own announcement state: this prefix's, or
        *state* (a :meth:`run_state` of a prefix with the same sites).

        The origins, the graph and the routing caches stay shared:
        tables are pure functions of graph + announcement state.
        """
        announced, blocked = (
            (self._announced, self._blocked) if state is None else state
        )
        clone = copy.copy(self)
        clone._announced = dict(announced)
        clone._blocked = dict(blocked)
        if state is not None:
            # The held key and table describe this prefix's own state.
            clone._current_key = None
            clone._current = None
        return clone

    def catchment_of(self, asn: int) -> str | None:
        """The site *asn* currently reaches, or ``None``."""
        return self.routing().site_of(asn)
