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
The origins' own routes and the local sites' offers, which the
reference makes one at a time, go through one vectorized offer pass
(:meth:`_Propagation.offer`) that accepts exactly the offers the
sequential loop would.  AS paths live in an append-only record forest
and are materialized into :class:`Route` objects only when a caller
asks for them.  The
kernel reproduces the scalar reference implementation
(:mod:`repro.netsim.bgp_reference`) bit for bit, including its
insertion-order-dependent tie-breaking; the property tests in
``tests/property/test_bgp_kernel.py`` pin that equivalence.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..util.geo import Location
from .asgraph import ASGraph, CompiledGraph

if TYPE_CHECKING:
    from .asgraph import AsNode  # noqa: F401  (doc cross-references)

#: ``best_class`` sentinel for "no route"; larger than every real
#: :class:`RouteClass`, so lexicographic comparison needs no mask.
_UNREACHED = 127

#: Route class seen by a neighbor of a local-scope origin, indexed by
#: the origin's relationship code for that neighbor (see
#: ``asgraph._REL_CODES``): our provider (1) learns a customer route
#: (0), a peer (2) a peer route (1), our customer (0) a provider route
#: (2).
_EXPORT_CLASS = np.array([2, 0, 1], dtype=np.int8)

#: :meth:`_Propagation.offer`'s shared roots when its offers have none.
_NO_ROOTS = np.zeros(0, dtype=np.int64)


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
        """This origin with blocked set *blocked*: ``self`` if it is
        unchanged, otherwise a copy."""
        if blocked == self.blocked_neighbors:
            return self
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
    """Best route per AS for one anycast prefix, on one compiled graph.

    An immutable value over the kernel's :class:`_TableArrays`: every
    query reads the best-route arrays, and ``Route`` objects are
    materialized only when asked for (:meth:`route`, :meth:`routes`).
    Caches of data derived from a table (catchment arrays, share
    vectors) key on the table object itself, which they then hold so
    the key cannot be recycled, or on the announcement state that
    produced it (:meth:`~repro.netsim.anycast.AnycastPrefix.state_key`).
    Routing finishes the graph (it refuses edits after its first
    read), and :meth:`changes_from` refuses to diff tables of two
    compiled graphs.
    """

    def __init__(self, arrays: _TableArrays) -> None:
        self._arrays = arrays

    # -- lazy materialization -----------------------------------------

    def _route_at(self, row: int) -> Route:
        """Materialize the :class:`Route` held at compiled-graph *row*."""
        arrays = self._arrays
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

    def routes(self) -> dict[int, Route]:
        """Every ``asn -> Route``, freshly materialized.

        Iteration order is the reference implementation's install
        order (:func:`repro.netsim.bgp_reference.propagate`).
        """
        asn_of = self._arrays.compiled.asn_of
        return {
            int(asn_of[row]): self._route_at(row)
            for row in self._arrays.order.tolist()
        }

    # -- queries ------------------------------------------------------

    def route(self, asn: int) -> Route | None:
        """The best route of *asn*, or ``None`` if unreachable."""
        arrays = self._arrays
        row = arrays.compiled.row_of.get(asn)
        if row is None or arrays.best_class[row] == _UNREACHED:
            return None
        return self._route_at(row)

    def site_of(self, asn: int) -> str | None:
        """The anycast site *asn*'s traffic reaches, or ``None``."""
        arrays = self._arrays
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

    def catchments(self) -> dict[str, set[int]]:
        """Site -> set of ASes routed to it."""
        result: dict[str, set[int]] = defaultdict(set)
        arrays = self._arrays
        asn_of = arrays.compiled.asn_of
        best_site = arrays.best_site
        for row in arrays.order.tolist():
            site = arrays.site_names[int(best_site[row])]
            result[site].add(int(asn_of[row]))
        return dict(result)

    def reachable_asns(self) -> set[int]:
        """All ASes holding any route."""
        arrays = self._arrays
        rows = np.flatnonzero(arrays.best_class != _UNREACHED)
        return set(arrays.compiled.asn_of[rows].tolist())

    def changes_from(self, previous: "RoutingTable") -> set[int]:
        """ASes whose best route differs from *previous*.

        A change of site, of path, or gain/loss of reachability all
        counts -- this mirrors what a BGP collector peer sees as update
        activity (paper section 3.4.1).  Both tables must sit on the
        same compiled graph (``ValueError`` otherwise).  No ``Route``
        is materialized: the five best-route arrays are compared
        elementwise and only key-equal rows fall back to a vectorized
        walk of both record chains (equal keys imply equal path
        lengths, so the chains terminate in lockstep).
        """
        mine, theirs = self._arrays, previous._arrays
        if mine.compiled is not theirs.compiled:
            raise ValueError(
                "changes_from needs two tables on the same compiled graph"
            )
        reached_a = mine.best_class != _UNREACHED
        reached_b = theirs.best_class != _UNREACHED
        changed = reached_a != reached_b
        both = reached_a & reached_b
        if mine.site_names == theirs.site_names:
            their_site = theirs.best_site
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
            their_site = trans[theirs.best_site]
        keydiff = (
            (mine.best_class != theirs.best_class)
            | (mine.best_pathlen != theirs.best_pathlen)
            | (mine.best_tiebreak != theirs.best_tiebreak)
            | (mine.best_site != their_site)
            | (mine.best_origin != theirs.best_origin)
        )
        changed |= both & keydiff
        changed_rows = [np.flatnonzero(changed)]
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
        return set(mine.compiled.asn_of[rows].tolist())

    def __len__(self) -> int:
        return int((self._arrays.best_class != _UNREACHED).sum())


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
        # the graph's memo, so repeated propagations (and the scalar
        # reference) see bit-identical float64 values; sites
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
        self.rec_count = 0
        self.order_chunks: list[np.ndarray] = []

    # -- record forest and installs -----------------------------------

    def append_records(
        self, rows: np.ndarray, parents: np.ndarray
    ) -> np.ndarray:
        """Append path records ``(row, parent)`` in one batch and
        return their indices (*parents* are record indices, ``-1``
        at a path root)."""
        start = self.rec_count
        self.rec_count += rows.size
        self.rec_rows.append(rows.astype(np.int32))
        self.rec_parents.append(parents.astype(np.int64))
        return np.arange(start, self.rec_count, dtype=np.int64)

    def install_rows(
        self, rows: np.ndarray, cls: np.ndarray | int, plen: np.ndarray,
        tb: np.ndarray, site: np.ndarray, origin_asn: np.ndarray,
        recs: np.ndarray,
    ) -> None:
        """Install routes at distinct *rows* in one batch; rows reached
        for the first time join ``order`` in *rows* order."""
        fresh = self.best_class[rows] == _UNREACHED
        if bool(fresh.any()):
            self.order_chunks.append(rows[fresh])
        self.best_class[rows] = cls
        self.best_pathlen[rows] = plen
        self.best_tiebreak[rows] = tb
        self.best_site[rows] = site
        self.best_origin[rows] = origin_asn
        self.best_rec[rows] = recs

    # -- the offer pass (origins and local sites) ---------------------

    def origin_arrays(
        self, origins: list[Origin]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Host rows, site indices and ASNs of *origins*, in order."""
        row_of = self.compiled.row_of
        rows = np.array([row_of[o.asn] for o in origins], dtype=np.int64)
        sites = np.array(
            [self.site_idx[o.site] for o in origins], dtype=np.int16
        )
        asns = np.array([o.asn for o in origins], dtype=np.int64)
        return rows, sites, asns

    def offer(
        self, rows: np.ndarray, cls: np.ndarray, plen: np.ndarray,
        tb: np.ndarray, site: np.ndarray, origin_asn: np.ndarray,
        parents: np.ndarray, roots: np.ndarray = _NO_ROOTS,
    ) -> np.ndarray:
        """Make offers in sequence order, as the reference's ``offer``
        makes them one at a time; return the rows installed, ordered
        by each row's last accepted offer.

        A sequential offer is accepted when its key beats the row's
        current best, which is the minimum of the incumbent and every
        earlier offer to that row.  So one lexsort ranks all keys with
        the incumbents (equal keys share a rank, so a tie never
        beats), and a running minimum of the ranks per row, incumbent
        first, decides every offer at once: repeated rows, ties and
        later smaller offers included.  Each row keeps its last
        accepted offer, and fresh rows join ``order`` at their first.

        Each accepted offer appends one record ``(row, parent)``, in
        sequence order.  A parent is a record index, ``-1`` for a path
        root, or ``-2 - g`` for the shared root at row ``roots[g]``,
        whose record is appended just before the first accepted offer
        naming it, and only if there is one.
        """
        targets, group = np.unique(rows, return_inverse=True)
        n_rows = targets.size
        keys = (
            np.concatenate((self.best_class[targets], cls)),
            np.concatenate((self.best_pathlen[targets], plen)),
            np.concatenate((self.best_tiebreak[targets], tb)),
            np.concatenate((self.best_site[targets], site)),
            np.concatenate((self.best_origin[targets], origin_asn)),
        )
        ranked = np.lexsort(keys[::-1])
        new_key = np.zeros(ranked.size, dtype=bool)
        for key in keys:
            in_rank = key[ranked]
            new_key[1:] |= in_rank[1:] != in_rank[:-1]
        rank = np.empty(ranked.size, dtype=np.int64)
        rank[ranked] = np.cumsum(new_key)
        # Incumbents (entries < n_rows) lead their row's offers; later
        # rows sit below every earlier rank, so the running minimum
        # restarts at each row.
        member = np.concatenate((np.arange(n_rows), group))
        seq = np.argsort(member, kind="stable")
        run = rank[seq] + (n_rows - 1 - member[seq]) * ranked.size
        beats = np.zeros(seq.size, dtype=bool)
        beats[1:] = run[1:] < np.minimum.accumulate(run)[:-1]
        beats &= seq >= n_rows
        won = seq[beats] - n_rows  # by row, sequence order within
        if won.size == 0:
            return np.zeros(0, dtype=np.int64)
        new_row = group[won[1:]] != group[won[:-1]]
        head = np.concatenate(([True], new_row))
        tail = np.concatenate((new_row, [True]))
        by_first = np.argsort(won[head])
        first, last = won[head][by_first], won[tail][by_first]

        taken = np.sort(won)
        parent = parents[taken]
        shared = np.flatnonzero(parent < -1)
        # A shared root's record goes just before its first taker's.
        _, first_use = np.unique(parent[shared], return_index=True)
        opens = np.zeros(taken.size, dtype=bool)
        opens[shared[first_use]] = True
        width = opens + 1
        own = np.cumsum(width) - 1  # each taken offer's slot in the batch
        rec_rows = np.repeat(rows[taken], width)
        rec_parents = np.repeat(parent, width)
        if shared.size:
            root_of = -2 - parent
            root_slot = np.empty(roots.size, dtype=np.int64)
            root_slot[root_of[opens]] = own[opens] - 1
            rec_rows[own[opens] - 1] = roots[root_of[opens]]
            rec_parents[own[opens] - 1] = -1
            rec_parents[own[shared]] = (
                self.rec_count + root_slot[root_of[shared]]
            )
        rec_of = np.empty(rows.size, dtype=np.int64)
        rec_of[taken] = self.append_records(rec_rows, rec_parents)[own]
        self.install_rows(
            rows[first], cls[last], plen[last], tb[last], site[last],
            origin_asn[last], rec_of[last],
        )
        return rows[np.sort(last)]

    # -- batched frontier machinery -----------------------------------

    def expand(
        self, indptr: np.ndarray, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every edge out of *frontier*, in the exact order the
        reference visits them: frontier order outer, adjacency
        (link-insertion) order inner.  Returns each edge's position
        in *frontier* and its CSR index."""
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        pos = np.repeat(np.arange(frontier.size), counts)
        edges = np.arange(total, dtype=np.int64) + np.repeat(
            indptr[frontier] - (np.cumsum(counts) - counts), counts
        )
        return pos, edges

    def vector_beats(
        self, rows: np.ndarray, cls: np.ndarray | int, plen: np.ndarray,
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
        pos, edges = self.expand(indptr, frontier)
        if edges.size == 0:
            return empty
        preds = frontier[pos]
        targets = indices[edges].astype(np.int64)
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
        rank = np.lexsort((c_origin, c_site, c_tb, c_plen, targets))
        sorted_targets = targets[rank]
        lead = np.ones(sorted_targets.size, dtype=bool)
        lead[1:] = sorted_targets[1:] != sorted_targets[:-1]
        starts = np.flatnonzero(lead)
        winners = rank[starts]  # stable min per target, targets ascending
        # A target's smallest candidate index is its first occurrence.
        first_seen = np.minimum.reduceat(rank, starts)
        winners = winners[np.argsort(first_seen)]
        w_targets = targets[winners]
        beats = self.vector_beats(
            w_targets, route_class, c_plen[winners], c_tb[winners],
            c_site[winners], c_origin[winners],
        )
        winners, w_targets = winners[beats], w_targets[beats]
        if w_targets.size == 0:
            return empty
        # Parents are gathered before this level's installs, so a path
        # snapshot taken through a pred that improves later in the
        # stage stays stale -- exactly like the reference's captured
        # Route objects.
        recs = self.append_records(w_targets, self.best_rec[preds[winners]])
        self.install_rows(
            w_targets, route_class, c_plen[winners], c_tb[winners],
            c_site[winners], c_origin[winners], recs,
        )
        return w_targets

    def reached_in_order(self) -> np.ndarray:
        """All reached rows so far, in first-install order."""
        if not self.order_chunks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self.order_chunks)

    def finish(self) -> _TableArrays:
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


def propagate(graph: ASGraph, origins: list[Origin]) -> RoutingTable:
    """Compute best routes at every AS for one anycast prefix.

    Withdrawn sites are simply omitted from *origins*; with none left
    every AS is unreached.  This is the array kernel; it is
    bit-identical to :func:`repro.netsim.bgp_reference.propagate`
    (same winners, same tie-breaks, same install order).
    """
    for origin in origins:
        if origin.asn not in graph:
            raise KeyError(f"origin AS {origin.asn} not in graph")

    state = _Propagation(graph, origins)
    compiled = state.compiled
    global_origins = [o for o in origins if o.scope is Scope.GLOBAL]
    local_origins = [o for o in origins if o.scope is Scope.LOCAL]

    # --- Stage 1: customer-learned routes climb provider edges. -------
    # Origins offer in sequence; with duplicated origin ASes a later,
    # lexicographically smaller offer supersedes the earlier one, and
    # the reference expands the survivor at the *later* offer's
    # frontier position, which is the order the offer pass returns.
    rows, sites, asns = state.origin_arrays(global_origins)
    frontier = state.offer(
        rows,
        np.full(rows.size, RouteClass.CUSTOMER, dtype=np.int8),
        np.ones(rows.size, dtype=np.int16),
        np.zeros(rows.size, dtype=np.float64),
        sites,
        asns,
        np.full(rows.size, -1, dtype=np.int64),
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
    return RoutingTable(state.finish())


def _local_stage(
    state: _Propagation, local_origins: list[Origin]
) -> None:
    """Install local-scope (NO_EXPORT) sites: host AS plus neighbors.

    The reference offers, origin by origin, the host's own route and
    then one route per unblocked neighbor in adjacency order.  Each
    neighbor's path is rooted at a fresh record of the host, made only
    if one of the origin's neighbor offers is accepted, whatever route
    the host AS itself holds.  All of it is one offer pass in that
    sequence, so a later origin competes with an earlier one's
    installs, at its neighbors and at its host, as in the reference.
    """
    if not local_origins:
        return
    compiled = state.compiled
    hosts, sites, asns = state.origin_arrays(local_origins)
    owner, edges = state.expand(compiled.all_indptr, hosts)
    targets = compiled.all_indices[edges].astype(np.int64)
    # Each origin drops its own blocked neighbors: one code per
    # (origin, neighbor row) pair.
    n = compiled.n_nodes
    blocked = [
        k * n + row
        for k, origin in enumerate(local_origins)
        for asn in origin.blocked_neighbors
        if (row := compiled.row_of.get(asn)) is not None
    ]
    if blocked:
        keep = ~np.isin(owner * n + targets, blocked)
        owner, edges, targets = owner[keep], edges[keep], targets[keep]
    # The sequence: per origin, its host offer, then its neighbors'.
    span = np.bincount(owner, minlength=hosts.size) + 1
    who = np.repeat(np.arange(hosts.size), span)
    host = np.zeros(who.size, dtype=bool)
    host[np.cumsum(span) - span] = True
    neighbor = ~host
    rows = hosts[who]
    rows[neighbor] = targets
    # The neighbor learned the route from the inverse side: our
    # provider sees a customer route, our customer a provider one.
    cls = np.full(who.size, RouteClass.CUSTOMER, dtype=np.int8)
    cls[neighbor] = _EXPORT_CLASS[compiled.all_rel[edges]]
    tb = np.zeros(who.size, dtype=np.float64)
    tb[neighbor] = state.tie[sites[owner], targets]
    state.offer(
        rows,
        cls,
        np.where(host, 1, 2).astype(np.int16),
        tb,
        sites[who],
        asns[who],
        np.where(host, -1, -2 - who),
        roots=hosts,
    )


#: Same function object as :func:`propagate`; kept only because
#: ``perfbench/tracer.py:109`` looks this name up to trace it.
propagate_delta = propagate
