"""Path-vector route propagation with valley-free (Gao-Rexford) export.

Anycast catchments are the set of networks whose BGP best path leads to
a given site (paper section 2.1).  This module computes, for a set of
anycast origins announcing one prefix, the best route at every AS:

* routes learned from **customers** are exported to everyone;
* routes learned from **peers** or **providers** are exported only to
  customers;
* preference order is customer > peer > provider, then shortest AS
  path, then a deterministic tie-break (geographic proximity to the
  origin site, approximating hot-potato/IGP tie-breaks, then site id).

Sites announced with a **local** scope (the paper's NOPEER/NO_EXPORT
sites, Table 2) install their route only at the host AS and its direct
neighbors; the route is never re-exported, so the catchment stays in
the immediate neighborhood.

The propagation is a level-synchronous BFS run in three stages
(customer-learned "uphill", one peer hop, provider-learned "downhill").
:func:`propagate` is an array kernel over the graph's compiled CSR
view (:meth:`~repro.netsim.asgraph.ASGraph.compiled`): each stage
expands whole frontiers at once, selects per-AS winners with one
stable lexicographic sort, and stores best routes as parallel arrays.
AS paths live in an append-only record forest and are materialized
into :class:`Route` objects only when a caller asks for them.  The
kernel reproduces the scalar reference implementation
(:mod:`repro.netsim.bgp_reference`) bit for bit, including its
insertion-order-dependent tie-breaking; the property tests in
``tests/property/test_bgp_kernel.py`` pin that equivalence.
"""

from __future__ import annotations

import enum
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..util.geo import Location
from .asgraph import ASGraph, CompiledGraph

if TYPE_CHECKING:
    from .asgraph import AsNode  # noqa: F401  (doc cross-references)

#: Process-wide monotonic source of :attr:`RoutingTable.version` tokens.
#: Unlike ``id()``, a version is never reused after garbage collection,
#: so it is safe to key long-lived caches on it.
_TABLE_VERSIONS = itertools.count(1)

#: ``best_class`` sentinel for "no route"; larger than every real
#: :class:`RouteClass`, so lexicographic comparison needs no mask.
_UNREACHED = 127

#: Route class seen by a neighbor of a local-scope origin, indexed by
#: the origin's relationship code for that neighbor (see
#: ``asgraph._REL_CODES``): our provider (1) learns a customer route
#: (0), a peer (2) a peer route (1), our customer (0) a provider route
#: (2).
_EXPORT_CLASS = np.array([2, 0, 1], dtype=np.int8)


class Scope(enum.Enum):
    """Anycast announcement scope (paper's global vs local sites)."""

    GLOBAL = "global"
    LOCAL = "local"


class RouteClass(enum.IntEnum):
    """Preference class of a route; lower is better."""

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2


@dataclass(frozen=True, slots=True)
class Origin:
    """One anycast origin: a site announced from its host AS.

    *blocked_neighbors* models partial withdrawal: the origin stops
    exporting to those direct neighbors while still serving the rest.
    Under stress this is how a site sheds part of its catchment while
    remaining a degraded absorber for "stuck" networks (paper §3.4.2:
    some VPs stay pinned to an overloaded site while others shift).
    """

    site: str
    asn: int
    scope: Scope = Scope.GLOBAL
    location: Location | None = None
    blocked_neighbors: frozenset[int] = frozenset()
    #: Interconnection-richness discount applied to the geo tie-break
    #: distance (0 = none, 0.5 = distances count half).  Densely peered
    #: sites (K-AMS at AMS-IX) win ties over a wider radius than their
    #: location alone would suggest, without ever beating a zero-
    #: distance competitor.
    preference_discount: float = 0.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("origin site id must be non-empty")
        if not 0.0 <= self.preference_discount < 1.0:
            raise ValueError("preference_discount must be within [0, 1)")

    def with_blocked(self, blocked: frozenset[int]) -> "Origin":
        """A copy of this origin with a different blocked set."""
        return Origin(
            site=self.site,
            asn=self.asn,
            scope=self.scope,
            location=self.location,
            blocked_neighbors=blocked,
            preference_discount=self.preference_discount,
        )


@dataclass(frozen=True, slots=True)
class Route:
    """An AS's best route towards the anycast prefix.

    *path* lists the ASes the announcement traversed, origin first and
    the route holder last (so ``len(path)`` is the AS-path length).
    """

    site: str
    origin_asn: int
    path: tuple[int, ...]
    route_class: RouteClass
    tiebreak: float

    @property
    def path_len(self) -> int:
        """AS-path length (number of ASes, origin included)."""
        return len(self.path)

    def preference_key(self) -> tuple:
        """Lexicographic key; the smallest key wins."""
        return (
            int(self.route_class),
            self.path_len,
            self.tiebreak,
            self.site,
            self.origin_asn,
        )

    def better_than(self, other: "Route | None") -> bool:
        """Whether this route beats *other* in BGP preference."""
        if other is None:
            return True
        return self.preference_key() < other.preference_key()


@dataclass(frozen=True, slots=True)
class _TableArrays:
    """Array backing of one routing table (kernel output).

    Rows align with the compiled graph.  ``best_site`` holds indices
    into ``site_names`` (sorted, so index order equals the reference's
    lexicographic site comparison) with ``-1`` for "no route";
    ``best_class`` uses :data:`_UNREACHED` as its sentinel.  AS paths
    are chains in the append-only record forest: ``best_rec[row]``
    points at the last hop, ``rec_parent`` walks back to the origin
    (``-1`` terminates), and ``rec_row`` names the AS at each hop.
    ``order`` lists reached rows in first-install order -- the exact
    insertion order of the reference implementation's dict, which
    materialized dicts reproduce.
    """

    compiled: CompiledGraph
    site_names: tuple[str, ...]
    best_class: np.ndarray    # int8, _UNREACHED where no route
    best_pathlen: np.ndarray  # int16
    best_tiebreak: np.ndarray # float64
    best_site: np.ndarray     # int16 index into site_names, -1 none
    best_origin: np.ndarray   # int64 origin ASN
    best_rec: np.ndarray      # int64 index into the record forest
    rec_row: np.ndarray       # int32 AS row of each record
    rec_parent: np.ndarray    # int64 parent record, -1 at the origin
    order: np.ndarray         # int64 reached rows, first-install order


class RoutingTable:
    """Best route per AS for one anycast prefix.

    Every table carries a process-unique, monotonic :attr:`version`
    token assigned at construction.  Cached tables (see
    :class:`~repro.netsim.anycast.AnycastPrefix`) keep their version
    across reuse, so ``version`` is the correct cache key for any
    derived data (catchment arrays, share vectors) -- unlike
    ``id(table)``, which can alias once a table is garbage collected.

    Tables come in two backings: the array kernel produces tables over
    :class:`_TableArrays` (``Route`` objects and the full dict are
    materialized lazily, only when asked), while the dict constructor
    remains for hand-built tables and the scalar reference.  All query
    methods behave identically on both.
    """

    def __init__(self, routes: dict[int, Route]) -> None:
        self._dict: dict[int, Route] | None = routes
        self._arrays: _TableArrays | None = None
        self._route_cache: dict[int, Route] = {}
        self.version = next(_TABLE_VERSIONS)

    @classmethod
    def _from_arrays(cls, arrays: _TableArrays) -> "RoutingTable":
        table = cls.__new__(cls)
        table._dict = None
        table._arrays = arrays
        table._route_cache = {}
        table.version = next(_TABLE_VERSIONS)
        return table

    # -- lazy materialization -----------------------------------------

    def _route_at(self, row: int) -> Route:
        """Materialize the :class:`Route` held at compiled-graph *row*."""
        arrays = self._arrays
        assert arrays is not None
        hops: list[int] = []
        rec = int(arrays.best_rec[row])
        while rec >= 0:
            hops.append(int(arrays.rec_row[rec]))
            rec = int(arrays.rec_parent[rec])
        asn_of = arrays.compiled.asn_of
        path = tuple(int(asn_of[r]) for r in reversed(hops))
        return Route(
            site=arrays.site_names[int(arrays.best_site[row])],
            origin_asn=int(arrays.best_origin[row]),
            path=path,
            route_class=RouteClass(int(arrays.best_class[row])),
            tiebreak=float(arrays.best_tiebreak[row]),
        )

    @property
    def _routes(self) -> dict[int, Route]:
        """The full ``asn -> Route`` dict, materialized on first use.

        Iteration order equals the reference implementation's install
        order, so dict-based fallbacks stay order-identical.
        """
        if self._dict is None:
            arrays = self._arrays
            assert arrays is not None
            asn_of = arrays.compiled.asn_of
            self._dict = {
                int(asn_of[row]): self._route_at(row)
                for row in arrays.order.tolist()
            }
        return self._dict

    # -- queries ------------------------------------------------------

    def route(self, asn: int) -> Route | None:
        """The best route of *asn*, or ``None`` if unreachable."""
        if self._dict is not None:
            return self._dict.get(asn)
        arrays = self._arrays
        assert arrays is not None
        row = arrays.compiled.row_of.get(asn)
        if row is None or arrays.best_class[row] == _UNREACHED:
            return None
        cached = self._route_cache.get(asn)
        if cached is None:
            cached = self._route_at(row)
            self._route_cache[asn] = cached
        return cached

    def site_of(self, asn: int) -> str | None:
        """The anycast site *asn*'s traffic reaches, or ``None``."""
        if self._dict is not None:
            route = self._dict.get(asn)
            return None if route is None else route.site
        arrays = self._arrays
        assert arrays is not None
        row = arrays.compiled.row_of.get(asn)
        if row is None or arrays.best_class[row] == _UNREACHED:
            return None
        return arrays.site_names[int(arrays.best_site[row])]

    def sites_of(
        self, asns: Iterable[int], site_index: Mapping[str, int]
    ) -> np.ndarray:
        """Vectorized catchment lookup over *asns*.

        Returns an ``int16`` array of site indices (per *site_index*),
        with ``-1`` for ASes holding no route.
        """
        arrays = self._arrays
        if arrays is None:
            return self._sites_of_dict(asns, site_index)
        asn_arr = np.asarray(asns, dtype=np.int64)
        out = np.full(asn_arr.size, -1, dtype=np.int16)
        rows = arrays.compiled.rows_of(asn_arr)
        valid = rows >= 0
        if not bool(valid.any()):
            return out
        # Translate kernel site indices into the caller's *site_index*;
        # the trailing -1 slot catches unreached rows (best_site == -1).
        trans = np.full(len(arrays.site_names) + 1, -1, dtype=np.int16)
        for i, name in enumerate(arrays.site_names):
            trans[i] = site_index.get(name, -2)
        picked = trans[arrays.best_site[rows[valid]]]
        if bool((picked == -2).any()):
            missing = sorted(
                name
                for name in arrays.site_names
                if name not in site_index
            )
            raise KeyError(missing[0])
        out[valid] = picked
        return out

    def _sites_of_dict(
        self, asns: Iterable[int], site_index: Mapping[str, int]
    ) -> np.ndarray:
        routes = self._routes
        asn_arr = np.asarray(asns, dtype=np.int64)
        out = np.full(asn_arr.size, -1, dtype=np.int16)
        get = routes.get
        for i, asn in enumerate(asn_arr.tolist()):
            route = get(asn)
            if route is not None:
                out[i] = site_index[route.site]
        return out

    def catchments(self) -> dict[str, set[int]]:
        """Site -> set of ASes routed to it."""
        result: dict[str, set[int]] = defaultdict(set)
        arrays = self._arrays
        if arrays is not None and self._dict is None:
            asn_of = arrays.compiled.asn_of
            best_site = arrays.best_site
            for row in arrays.order.tolist():
                site = arrays.site_names[int(best_site[row])]
                result[site].add(int(asn_of[row]))
            return dict(result)
        for asn, route in self._routes.items():
            result[route.site].add(asn)
        return dict(result)

    def reachable_asns(self) -> set[int]:
        """All ASes holding any route."""
        arrays = self._arrays
        if arrays is not None:
            rows = np.flatnonzero(arrays.best_class != _UNREACHED)
            return set(arrays.compiled.asn_of[rows].tolist())
        return set(self._routes)

    def changes_from(self, previous: "RoutingTable") -> set[int]:
        """ASes whose best route differs from *previous*.

        A change of site, of path, or gain/loss of reachability all
        counts -- this mirrors what a BGP collector peer sees as update
        activity (paper section 3.4.1).  Two array-backed tables over
        the same compiled graph compare without materializing a single
        ``Route``: the five best-route arrays are compared elementwise
        and only key-equal rows fall back to a vectorized walk of both
        record chains (equal keys imply equal path lengths, so the
        chains terminate in lockstep).
        """
        mine, theirs = self._arrays, previous._arrays
        if (
            mine is not None
            and theirs is not None
            and (
                mine.compiled is theirs.compiled
                or _rows_prefix_aligned(mine.compiled, theirs.compiled)
            )
        ):
            return self._changes_from_arrays(mine, theirs)
        changed: set[int] = set()
        prev = previous._routes
        for asn, route in self._routes.items():
            if prev.get(asn) != route:
                changed.add(asn)
        for asn in prev:
            if asn not in self._routes:
                changed.add(asn)
        return changed

    @staticmethod
    def _changes_from_arrays(
        mine: _TableArrays, theirs: _TableArrays
    ) -> set[int]:
        # The two tables may sit on different compiled views of an
        # append-only graph (the caller verified the shared row
        # prefix); rows past the shorter table exist on one side only
        # and count as changed wherever they hold a route.
        n = min(mine.best_class.shape[0], theirs.best_class.shape[0])
        reached_a = mine.best_class[:n] != _UNREACHED
        reached_b = theirs.best_class[:n] != _UNREACHED
        changed = reached_a != reached_b
        both = reached_a & reached_b
        if mine.site_names == theirs.site_names:
            their_site = theirs.best_site[:n]
        else:
            # Map the other table's site indices into this table's
            # space; -2 marks sites this table does not know (always a
            # difference) and the trailing slot keeps -1 (unreached).
            index = {name: i for i, name in enumerate(mine.site_names)}
            trans = np.full(
                len(theirs.site_names) + 1, -2, dtype=np.int16
            )
            trans[-1] = -1
            for j, name in enumerate(theirs.site_names):
                trans[j] = index.get(name, -2)
            their_site = trans[theirs.best_site[:n]]
        keydiff = (
            (mine.best_class[:n] != theirs.best_class[:n])
            | (mine.best_pathlen[:n] != theirs.best_pathlen[:n])
            | (mine.best_tiebreak[:n] != theirs.best_tiebreak[:n])
            | (mine.best_site[:n] != their_site)
            | (mine.best_origin[:n] != theirs.best_origin[:n])
        )
        changed |= both & keydiff
        changed_rows = [np.flatnonzero(changed)]
        if mine.best_class.shape[0] > n:
            changed_rows.append(
                n + np.flatnonzero(mine.best_class[n:] != _UNREACHED)
            )
        # Key-equal rows can still differ in the path interior; walk
        # both record chains level by level (same length: equal keys
        # imply equal path lengths).
        same = np.flatnonzero(both & ~keydiff)
        rec_a = mine.best_rec[same]
        rec_b = theirs.best_rec[same]
        while same.size:
            neq = mine.rec_row[rec_a] != theirs.rec_row[rec_b]
            if bool(neq.any()):
                changed_rows.append(same[neq])
                keep = ~neq
                same, rec_a, rec_b = same[keep], rec_a[keep], rec_b[keep]
                if not same.size:
                    break
            rec_a = mine.rec_parent[rec_a]
            rec_b = theirs.rec_parent[rec_b]
            alive = rec_a >= 0
            same, rec_a, rec_b = same[alive], rec_a[alive], rec_b[alive]
        rows = np.concatenate(changed_rows)
        result = set(mine.compiled.asn_of[rows].tolist())
        if theirs.best_class.shape[0] > n:
            extra = n + np.flatnonzero(
                theirs.best_class[n:] != _UNREACHED
            )
            result.update(theirs.compiled.asn_of[extra].tolist())
        return result

    def __len__(self) -> int:
        arrays = self._arrays
        if arrays is not None:
            return int((arrays.best_class != _UNREACHED).sum())
        return len(self._routes)


def _rows_prefix_aligned(a: CompiledGraph, b: CompiledGraph) -> bool:
    """Whether two compiled views share their leading row order.

    AS nodes are append-only, so two compilations of the *same* graph
    taken before and after it grew agree on every shared row -- their
    tables then compare elementwise over the common prefix instead of
    materializing Route dicts.  Checked against the actual asn rows
    (not assumed) so unrelated graphs never take the array path.
    """
    n = min(a.asn_of.shape[0], b.asn_of.shape[0])
    return bool(np.array_equal(a.asn_of[:n], b.asn_of[:n]))


class _Propagation:
    """Mutable state of one array-kernel propagation run.

    The kernel mirrors the scalar reference exactly, including every
    ordering the reference inherits from dict iteration: CSR adjacency
    preserves link-insertion order, per-level winners are chosen by a
    stable lexicographic sort (first candidate wins full-key ties, as
    Python's ``min`` does), level frontiers keep first-occurrence
    target order (``dict.items`` over the reference's candidate dict),
    and ``order`` records first-install order (the reference's best
    dict insertion order).
    """

    def __init__(
        self, graph: ASGraph, origins: list[Origin]
    ) -> None:
        self.compiled = graph.compiled()
        n = self.compiled.n_nodes
        self.site_names = tuple(sorted({o.site for o in origins}))
        site_idx = {s: i for i, s in enumerate(self.site_names)}
        self.site_idx = site_idx
        # Tie-break distances per site over all ASes.  Rows come from
        # the graph's per-version memo, so repeated propagations (and
        # the scalar reference) see bit-identical float64 values; sites
        # without a located origin tie-break at 0.0.  Duplicated site
        # ids resolve last-origin-wins, like the reference's dict.
        self.tie = np.zeros((len(self.site_names), n), dtype=np.float64)
        located = [o for o in origins if o.location is not None]
        if located:
            rows = graph.distance_rows(
                [
                    (o.asn, o.location, 1.0 - o.preference_discount)
                    for o in located
                ]
            )
            for origin, row in zip(located, rows):
                self.tie[site_idx[origin.site]] = row
        by_site = {o.site: o for o in origins}
        self.blocked: np.ndarray | None = None
        if any(o.blocked_neighbors for o in by_site.values()):
            blocked = np.zeros((len(self.site_names), n), dtype=bool)
            for site, origin in by_site.items():
                for neighbor in origin.blocked_neighbors:
                    row = self.compiled.row_of.get(neighbor)
                    if row is not None:
                        blocked[site_idx[site], row] = True
            self.blocked = blocked
        self.best_class = np.full(n, _UNREACHED, dtype=np.int8)
        self.best_pathlen = np.zeros(n, dtype=np.int16)
        self.best_tiebreak = np.zeros(n, dtype=np.float64)
        self.best_site = np.full(n, -1, dtype=np.int16)
        self.best_origin = np.zeros(n, dtype=np.int64)
        self.best_rec = np.full(n, -1, dtype=np.int64)
        self.rec_rows: list[np.ndarray] = []
        self.rec_parents: list[np.ndarray] = []
        self.pending_rows: list[int] = []
        self.pending_parents: list[int] = []
        self.rec_count = 0
        self.order_chunks: list[np.ndarray] = []

    def site_tb(self, site: int, rows: np.ndarray) -> np.ndarray:
        """Tie-break floats of *site* at *rows*."""
        result: np.ndarray = self.tie[site, rows]
        return result

    # -- record forest ------------------------------------------------

    def new_record(self, row: int, parent: int) -> int:
        """Append one path record and return its index.

        Scalar records buffer in Python lists; :meth:`_flush_pending`
        folds them into the chunked forest before any batched append,
        preserving creation order.
        """
        self.pending_rows.append(row)
        self.pending_parents.append(parent)
        rec = self.rec_count
        self.rec_count += 1
        return rec

    def _flush_pending(self) -> None:
        if self.pending_rows:
            self.rec_rows.append(
                np.array(self.pending_rows, dtype=np.int32)
            )
            self.rec_parents.append(
                np.array(self.pending_parents, dtype=np.int64)
            )
            self.pending_rows = []
            self.pending_parents = []

    # -- scalar offers (bootstrap and local origins) ------------------

    def scalar_beats(
        self, row: int, cls: int, plen: int, tb: float, site: int,
        origin_asn: int,
    ) -> bool:
        return (cls, plen, tb, site, origin_asn) < (
            int(self.best_class[row]),
            int(self.best_pathlen[row]),
            float(self.best_tiebreak[row]),
            int(self.best_site[row]),
            int(self.best_origin[row]),
        )

    def scalar_install(
        self, row: int, cls: int, plen: int, tb: float, site: int,
        origin_asn: int, parent: int,
    ) -> None:
        if self.best_class[row] == _UNREACHED:
            self.order_chunks.append(np.array([row], dtype=np.int64))
        self.best_class[row] = cls
        self.best_pathlen[row] = plen
        self.best_tiebreak[row] = tb
        self.best_site[row] = site
        self.best_origin[row] = origin_asn
        self.best_rec[row] = self.new_record(row, parent)

    # -- batched frontier machinery -----------------------------------

    def expand(
        self, indptr: np.ndarray, indices: np.ndarray,
        frontier: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (pred, target) edges out of *frontier*, in the exact
        order the reference visits them: frontier order outer,
        adjacency (link-insertion) order inner."""
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        preds = np.repeat(frontier, counts)
        starts = np.repeat(indptr[frontier], counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        targets = indices[starts + within].astype(np.int64)
        return preds, targets

    def vector_beats(
        self, rows: np.ndarray, cls: np.ndarray, plen: np.ndarray,
        tb: np.ndarray, site: np.ndarray, origin_asn: np.ndarray,
    ) -> np.ndarray:
        """Strict lexicographic preference vs the incumbents at *rows*."""
        b_cls = self.best_class[rows]
        b_plen = self.best_pathlen[rows]
        b_tb = self.best_tiebreak[rows]
        b_site = self.best_site[rows]
        b_origin = self.best_origin[rows]
        result: np.ndarray = (
            (cls < b_cls)
            | ((cls == b_cls) & (
                (plen < b_plen)
                | ((plen == b_plen) & (
                    (tb < b_tb)
                    | ((tb == b_tb) & (
                        (site < b_site)
                        | ((site == b_site) & (origin_asn < b_origin))
                    ))
                ))
            ))
        )
        return result

    def level(
        self, frontier: np.ndarray, indptr: np.ndarray,
        indices: np.ndarray, route_class: int,
    ) -> np.ndarray:
        """Expand one BFS level and install winning offers.

        Returns the next frontier: newly installed rows, ordered by
        first candidate occurrence (the reference's ``dict.items``
        order over its per-level candidate map).
        """
        empty = np.zeros(0, dtype=np.int64)
        preds, targets = self.expand(indptr, indices, frontier)
        if targets.size == 0:
            return empty
        blocked = self.blocked
        if blocked is not None:
            # Partial withdrawal filters exports of the origin itself
            # (path length 1) only; longer routes re-export freely.
            at_origin = self.best_pathlen[preds] == 1
            if bool(at_origin.any()):
                keep = ~(
                    at_origin
                    & blocked[self.best_site[preds], targets]
                )
                preds, targets = preds[keep], targets[keep]
                if targets.size == 0:
                    return empty
        c_site = self.best_site[preds]
        c_origin = self.best_origin[preds]
        c_plen = (self.best_pathlen[preds] + 1).astype(np.int16)
        c_tb = self.tie[c_site, targets]
        # Parents are gathered before this level's installs, so a path
        # snapshot taken through a pred that improves later in the
        # stage stays stale -- exactly like the reference's captured
        # Route objects.
        c_parent = self.best_rec[preds]
        rank = np.lexsort((c_origin, c_site, c_tb, c_plen, targets))
        sorted_targets = targets[rank]
        lead = np.ones(sorted_targets.size, dtype=bool)
        lead[1:] = sorted_targets[1:] != sorted_targets[:-1]
        winners = rank[lead]  # stable min per target, targets ascending
        # Both sorts list the same targets in ascending order, so
        # ``lead`` also marks each target's first occurrence here.
        first_seen = np.argsort(targets, kind="stable")[lead]
        winners = winners[np.argsort(first_seen, kind="stable")]
        w_targets = targets[winners]
        cls = np.full(w_targets.size, route_class, dtype=np.int8)
        beats = self.vector_beats(
            w_targets, cls, c_plen[winners], c_tb[winners],
            c_site[winners], c_origin[winners],
        )
        winners, w_targets = winners[beats], w_targets[beats]
        if w_targets.size == 0:
            return empty
        self.install_rows(
            w_targets,
            np.full(w_targets.size, route_class, dtype=np.int8),
            c_plen[winners],
            c_tb[winners],
            c_site[winners],
            c_origin[winners],
            c_parent[winners],
        )
        return w_targets

    def install_rows(
        self, rows: np.ndarray, cls: np.ndarray, plen: np.ndarray,
        tb: np.ndarray, site: np.ndarray, origin_asn: np.ndarray,
        parents: np.ndarray,
    ) -> None:
        """Install winning offers at distinct *rows* in one batch."""
        fresh = self.best_class[rows] == _UNREACHED
        if bool(fresh.any()):
            self.order_chunks.append(rows[fresh])
        self.best_class[rows] = cls
        self.best_pathlen[rows] = plen
        self.best_tiebreak[rows] = tb
        self.best_site[rows] = site
        self.best_origin[rows] = origin_asn
        self._flush_pending()
        recs = np.arange(
            self.rec_count, self.rec_count + rows.size, dtype=np.int64
        )
        self.rec_count += rows.size
        self.rec_rows.append(rows.astype(np.int32))
        self.rec_parents.append(parents.astype(np.int64))
        self.best_rec[rows] = recs

    def reached_in_order(self) -> np.ndarray:
        """All reached rows so far, in first-install order."""
        if not self.order_chunks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self.order_chunks)

    def finish(self) -> _TableArrays:
        self._flush_pending()
        if self.rec_rows:
            rec_row = np.concatenate(self.rec_rows)
            rec_parent = np.concatenate(self.rec_parents)
        else:
            rec_row = np.zeros(0, dtype=np.int32)
            rec_parent = np.zeros(0, dtype=np.int64)
        for array in (
            self.best_class, self.best_pathlen, self.best_tiebreak,
            self.best_site, self.best_origin, self.best_rec,
            rec_row, rec_parent,
        ):
            array.flags.writeable = False
        return _TableArrays(
            compiled=self.compiled,
            site_names=self.site_names,
            best_class=self.best_class,
            best_pathlen=self.best_pathlen,
            best_tiebreak=self.best_tiebreak,
            best_site=self.best_site,
            best_origin=self.best_origin,
            best_rec=self.best_rec,
            rec_row=rec_row,
            rec_parent=rec_parent,
            order=self.reached_in_order(),
        )


def compiled_graph_from_buffers(
    version: int, arrays: Mapping[str, np.ndarray]
) -> CompiledGraph:
    """Rebuild a :class:`CompiledGraph` from named array buffers.

    The from-buffer constructor used by the zero-copy sweep substrate
    layer (:mod:`repro.sweep.shm`): *arrays* are typically read-only
    views over a ``multiprocessing.shared_memory`` segment exported by
    the sweep parent, one entry per
    :meth:`CompiledGraph.array_fields` name.  ``row_of`` is derived
    from ``asn_of``; the result is indistinguishable from the view
    :meth:`ASGraph.compiled` would build for the same structure
    version, so every kernel in this module runs on it unchanged.
    """
    return CompiledGraph.from_arrays(version, arrays)


def propagate(graph: ASGraph, origins: list[Origin]) -> RoutingTable:
    """Compute best routes at every AS for one anycast prefix.

    Withdrawn sites are simply omitted from *origins*.  This is the
    array kernel; it is bit-identical to
    :func:`repro.netsim.bgp_reference.propagate` (same winners, same
    tie-breaks, same table iteration order).
    """
    for origin in origins:
        if origin.asn not in graph:
            raise KeyError(f"origin AS {origin.asn} not in graph")

    state = _Propagation(graph, origins)
    compiled = state.compiled
    site_idx = state.site_idx
    global_origins = [o for o in origins if o.scope is Scope.GLOBAL]
    local_origins = [o for o in origins if o.scope is Scope.LOCAL]

    # --- Stage 1: customer-learned routes climb provider edges. -------
    # Origins offer sequentially; with duplicated origin ASes a later,
    # lexicographically smaller offer supersedes the earlier one, and
    # the reference expands the survivor at the *later* offer's
    # frontier position.
    winning: list[int] = []
    for origin in global_origins:
        row = compiled.row_of[origin.asn]
        site = site_idx[origin.site]
        if state.scalar_beats(row, 0, 1, 0.0, site, origin.asn):
            state.scalar_install(
                row, 0, 1, 0.0, site, origin.asn, parent=-1
            )
            winning.append(row)
    last_win = {row: i for i, row in enumerate(winning)}
    frontier = np.array(
        [row for i, row in enumerate(winning) if last_win[row] == i],
        dtype=np.int64,
    )
    while frontier.size:
        frontier = state.level(
            frontier,
            compiled.provider_indptr,
            compiled.provider_indices,
            int(RouteClass.CUSTOMER),
        )

    # --- Stage 2: one peer hop from every customer-routed AS. ---------
    # Every route installed so far is customer-learned, and peer offers
    # can only win at so-far-unreached ASes, so one batched level with
    # the reference's source order (install order) is exact.
    state.level(
        state.reached_in_order(),
        compiled.peer_indptr,
        compiled.peer_indices,
        int(RouteClass.PEER),
    )

    # --- Stage 3: everything rolls downhill to customers. -------------
    frontier = state.reached_in_order()
    while frontier.size:
        frontier = state.level(
            frontier,
            compiled.customer_indptr,
            compiled.customer_indices,
            int(RouteClass.PROVIDER),
        )

    # --- Local sites: host AS and direct neighbors only. --------------
    _local_stage(state, local_origins)
    return RoutingTable._from_arrays(state.finish())


def _local_stage(
    state: _Propagation, local_origins: list[Origin]
) -> None:
    """Install local-scope (NO_EXPORT) sites: host AS plus neighbors.

    One batched offer per origin: the neighbors are distinct targets
    in adjacency order, so a vectorized compare equals the
    reference's sequential offers (origins still go one at a time,
    since a later origin competes against an earlier one's installs).
    """
    compiled = state.compiled
    site_idx = state.site_idx
    for origin in local_origins:
        row = compiled.row_of[origin.asn]
        site = site_idx[origin.site]
        if state.scalar_beats(row, 0, 1, 0.0, site, origin.asn):
            state.scalar_install(
                row, 0, 1, 0.0, site, origin.asn, parent=-1
            )
        start, end = (
            int(compiled.all_indptr[row]),
            int(compiled.all_indptr[row + 1]),
        )
        targets = compiled.all_indices[start:end].astype(np.int64)
        rels = compiled.all_rel[start:end]
        if origin.blocked_neighbors:
            keep = ~np.isin(
                compiled.asn_of[targets],
                np.array(sorted(origin.blocked_neighbors), dtype=np.int64),
            )
            targets, rels = targets[keep], rels[keep]
        if targets.size == 0:
            continue
        # The neighbor learned the route from the inverse side: our
        # provider sees a customer route, our customer a provider one.
        cls = _EXPORT_CLASS[rels]
        plen = np.full(targets.size, 2, dtype=np.int16)
        tb = state.site_tb(site, targets)
        site_arr = np.full(targets.size, site, dtype=np.int16)
        origin_arr = np.full(targets.size, origin.asn, dtype=np.int64)
        beats = state.vector_beats(
            targets, cls, plen, tb, site_arr, origin_arr
        )
        if not bool(beats.any()):
            continue
        # Path root (origin.asn,) independent of whatever route the
        # origin AS itself currently holds.
        base_rec = state.new_record(row, parent=-1)
        parents = np.full(int(beats.sum()), base_rec, dtype=np.int64)
        state.install_rows(
            targets[beats], cls[beats], plen[beats], tb[beats],
            site_arr[beats], origin_arr[beats], parents,
        )


#: Same function object as :func:`propagate`; kept only because
#: ``perfbench/tracer.py:109`` looks this name up to trace it.
propagate_delta = propagate
