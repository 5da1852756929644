"""AS-level topology with business relationships.

BGP route propagation (and therefore anycast catchment formation) is
governed by the commercial relationships between autonomous systems:
customers buy transit from providers, and peers exchange their own and
their customers' routes settlement-free (Gao-Rexford).  This module
holds the graph; :mod:`repro.netsim.bgp` propagates routes over it.

Over the paper's 48-hour window the AS-level Internet stays fixed and
only anycast announcements move, so a graph has a build phase and then
a read phase.  ``add_as`` and ``add_link`` build it.  The first
:meth:`ASGraph.compiled`, :meth:`ASGraph.coordinate_arrays` or
:meth:`ASGraph.distance_rows` call finishes it: later edits raise
``ValueError``.  What is derived from the graph -- the compiled CSR
view, the coordinate arrays, the tie-break distance rows -- is
therefore built once, never goes stale, and is read-only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..util.arrays import frozen
from ..util.geo import Location, haversine_km_vec


class Relationship(enum.Enum):
    """The relationship of a neighbor, from the perspective of one AS."""

    CUSTOMER = "customer"  # the neighbor pays us for transit
    PROVIDER = "provider"  # we pay the neighbor for transit
    PEER = "peer"          # settlement-free

    @property
    def inverse(self) -> "Relationship":
        """The same link seen from the other side."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


class AsRole(enum.Enum):
    """Coarse role tag, used by builders and reporting (not by BGP)."""

    TRANSIT = "transit"     # backbone / tier-1
    STUB = "stub"           # edge network hosting VPs or bots
    SITE_HOST = "site_host" # hosts an anycast site


@dataclass(frozen=True, slots=True)
class AsNode:
    """One autonomous system."""

    asn: int
    location: Location
    role: AsRole = AsRole.STUB
    name: str = ""

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"ASNs are positive integers: {self.asn}")


#: Relationship -> int8 code used by :attr:`CompiledGraph.all_rel`.
_REL_CODES: dict[Relationship, int] = {
    Relationship.CUSTOMER: 0,
    Relationship.PROVIDER: 1,
    Relationship.PEER: 2,
}

#: Every ndarray field of :class:`CompiledGraph`, in declaration
#: order.  The shared-memory substrate layer (:mod:`repro.sweep.shm`)
#: exports exactly these arrays and rebuilds the view from attached
#: buffers via :meth:`CompiledGraph.from_arrays`; ``row_of`` is
#: deliberately absent -- it is derived from ``asn_of``.
_COMPILED_ARRAY_FIELDS = (
    "asn_of",
    "provider_indptr",
    "provider_indices",
    "peer_indptr",
    "peer_indices",
    "customer_indptr",
    "customer_indices",
    "all_indptr",
    "all_indices",
    "all_rel",
    "_sorted_asns",
    "_sorted_rows",
)


@dataclass(frozen=True, slots=True)
class CompiledGraph:
    """An immutable CSR view of one finished :class:`ASGraph`.

    Rows are ASes in graph insertion order (``asn_of[row]`` is the ASN,
    ``row_of[asn]`` the row).  For each business relationship there is
    one CSR adjacency: ``provider_indices[provider_indptr[i]:
    provider_indptr[i + 1]]`` are the rows of AS *i*'s transit
    providers, in the order the links were added -- the same order the
    scalar reference implementation visits them, which the array
    kernel's deterministic tie-breaking relies on.

    Obtained from :meth:`ASGraph.compiled`, which builds it once; all
    arrays are read-only.
    """

    asn_of: np.ndarray            # int64: row -> ASN
    row_of: dict[int, int]        # ASN -> row
    provider_indptr: np.ndarray   # int64, len n+1
    provider_indices: np.ndarray  # int32 rows
    peer_indptr: np.ndarray
    peer_indices: np.ndarray
    customer_indptr: np.ndarray
    customer_indices: np.ndarray
    #: Combined adjacency (all relationships, link-insertion order),
    #: with the relationship of each neighbor encoded per
    #: :data:`_REL_CODES`: 0 customer, 1 provider, 2 peer.
    all_indptr: np.ndarray
    all_indices: np.ndarray
    all_rel: np.ndarray           # int8 codes aligned to all_indices
    _sorted_asns: np.ndarray      # int64, ascending (for rows_of)
    _sorted_rows: np.ndarray      # int64, rows aligned to _sorted_asns

    def __reduce__(self) -> tuple[object, ...]:
        # Unpickle through from_arrays, which freezes every array again
        # (NumPy unpickles arrays writable) and derives row_of, so the
        # ASN -> row dict never enters the stream.
        return (
            type(self).from_arrays,
            ({name: getattr(self, name) for name in _COMPILED_ARRAY_FIELDS},),
        )

    @property
    def n_nodes(self) -> int:
        return int(self.asn_of.size)

    @classmethod
    def array_fields(cls) -> tuple[str, ...]:
        """Names of every ndarray field, in declaration order."""
        return _COMPILED_ARRAY_FIELDS

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "CompiledGraph":
        """Rebuild a compiled view from its named arrays.

        The from-buffer constructor of the zero-copy sweep path: the
        arrays typically live in a ``multiprocessing.shared_memory``
        segment created by another process.  ``row_of`` is derived
        from ``asn_of`` (rows are insertion order by construction).
        Every array is frozen, preserving the invariant that compiled
        views are immutable.
        """
        missing = [
            name for name in _COMPILED_ARRAY_FIELDS if name not in arrays
        ]
        if missing:
            raise ValueError(
                f"CompiledGraph.from_arrays missing arrays: {missing}"
            )
        fields = {
            name: frozen(arrays[name]) for name in _COMPILED_ARRAY_FIELDS
        }
        row_of = {int(asn): row for row, asn in enumerate(fields["asn_of"])}
        return cls(row_of=row_of, **fields)

    def rows_of(self, asns: Iterable[int] | np.ndarray) -> np.ndarray:
        """Vectorized ASN -> row lookup; ``-1`` for unknown ASNs."""
        arr = np.asarray(asns, dtype=np.int64)
        if self._sorted_asns.size == 0:
            return np.full(arr.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._sorted_asns, arr)
        pos = np.clip(pos, 0, self._sorted_asns.size - 1)
        rows = self._sorted_rows[pos]
        return np.where(self.asn_of[rows] == arr, rows, -1)


@dataclass(slots=True)
class ASGraph:
    """An AS-level topology: built with ``add_as``/``add_link``, then
    read.

    Adjacency is stored per node as ``{neighbor_asn: relationship}``
    where the relationship is expressed from the node's own viewpoint.
    The first :meth:`compiled` call, which :meth:`coordinate_arrays`
    and :meth:`distance_rows` also make, finishes the graph: later
    edits raise ``ValueError`` and leave it unchanged.
    """

    _nodes: dict[int, AsNode] = field(default_factory=dict)
    _adjacency: dict[int, dict[int, Relationship]] = field(default_factory=dict)
    #: The compiled view; set by the first read, which ends the build.
    _compiled: CompiledGraph | None = None
    _coords: tuple[np.ndarray, np.ndarray] | None = None
    _distances: dict[int, np.ndarray] = field(default_factory=dict)

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # NumPy unpickles arrays writable: freeze the coordinates and
        # distance rows again (the compiled view freezes its own).
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
        for array in (*(self._coords or ()), *self._distances.values()):
            frozen(array)

    def _refuse_if_finished(self, edit: str) -> None:
        if self._compiled is not None:
            raise ValueError(
                f"cannot {edit}: the graph has been read, so it is finished"
            )

    def add_as(self, node: AsNode) -> None:
        """Add an AS; re-adding an existing ASN is an error."""
        self._refuse_if_finished(f"add AS {node.asn}")
        if node.asn in self._nodes:
            raise ValueError(f"AS {node.asn} already in graph")
        self._nodes[node.asn] = node
        self._adjacency[node.asn] = {}

    def add_link(self, asn: int, neighbor: int, rel: Relationship) -> None:
        """Add a link; *rel* is *neighbor*'s role as seen from *asn*.

        ``add_link(64500, 64501, Relationship.PROVIDER)`` means 64501
        provides transit to 64500.  The reverse direction is recorded
        automatically.
        """
        self._refuse_if_finished(f"link AS {asn} to AS {neighbor}")
        if asn == neighbor:
            raise ValueError("an AS cannot neighbor itself")
        for a in (asn, neighbor):
            if a not in self._nodes:
                raise KeyError(f"AS {a} not in graph")
        existing = self._adjacency[asn].get(neighbor)
        if existing is not None and existing is not rel:
            raise ValueError(
                f"link {asn}-{neighbor} already exists as {existing}"
            )
        self._adjacency[asn][neighbor] = rel
        self._adjacency[neighbor][asn] = rel.inverse

    def coordinate_arrays(
        self,
    ) -> tuple[dict[int, int], np.ndarray, np.ndarray]:
        """``(row_of_asn, lats, lons)`` over all ASes, built once.

        ``row_of_asn`` is the compiled view's, so rows are insertion
        order; the arrays are read-only.
        """
        row_of = self.compiled().row_of
        if self._coords is None:
            locations = [n.location for n in self._nodes.values()]
            self._coords = (
                frozen(np.array([loc.lat for loc in locations])),
                frozen(np.array([loc.lon for loc in locations])),
            )
        lats, lons = self._coords
        return row_of, lats, lons

    def distance_rows(
        self, specs: list[tuple[int, Location, float]]
    ) -> list[np.ndarray]:
        """Distances (km × *scale*) from each spec's location to every
        AS: one read-only row per ``(cache_key, location, scale)`` spec.

        Rows align with :meth:`coordinate_arrays` and are memoized per
        *cache_key* (callers pass the origin ASN, which uniquely
        identifies ``(location, scale)``).  All misses are computed
        in a single broadcast haversine call instead of one small
        vectorised call per origin -- with hundreds of origins per
        letter the per-call numpy overhead dominates the arithmetic.
        """
        _, lats, lons = self.coordinate_arrays()
        memo = self._distances
        missing = [spec for spec in specs if spec[0] not in memo]
        if missing:
            origin_lats = np.array(
                [location.lat for _, location, _ in missing]
            )
            origin_lons = np.array(
                [location.lon for _, location, _ in missing]
            )
            matrix = haversine_km_vec(
                lats, lons, origin_lats[:, None], origin_lons[:, None]
            )
            for i, (key, _location, scale) in enumerate(missing):
                memo[key] = frozen(matrix[i] * scale)
        return [memo[key] for key, _location, _scale in specs]

    def distance_memo(self) -> dict[int, np.ndarray]:
        """A copy of the per-origin distance rows, keyed by origin
        cache key (ASN).  Used by the zero-copy sweep layer to ship
        warm tie-break memos to workers."""
        return dict(self._distances)

    def compiled(self) -> CompiledGraph:
        """The immutable CSR view of the graph, built on the first call.

        That call finishes the graph; the view is reused by every
        propagation.
        """
        if self._compiled is not None:
            return self._compiled
        row_of = {asn: i for i, asn in enumerate(self._nodes)}
        n = len(row_of)
        counts = {
            rel: np.zeros(n + 1, dtype=np.int64) for rel in Relationship
        }
        columns: dict[Relationship, list[int]] = {
            rel: [] for rel in Relationship
        }
        all_counts = np.zeros(n + 1, dtype=np.int64)
        all_columns: list[int] = []
        all_rel: list[int] = []
        for i, asn in enumerate(self._nodes):
            for neighbor, rel in self._adjacency[asn].items():
                counts[rel][i + 1] += 1
                columns[rel].append(row_of[neighbor])
                all_counts[i + 1] += 1
                all_columns.append(row_of[neighbor])
                all_rel.append(_REL_CODES[rel])
        csr: dict[Relationship, tuple[np.ndarray, np.ndarray]] = {}
        for rel in Relationship:
            csr[rel] = (
                frozen(np.cumsum(counts[rel])),
                frozen(np.array(columns[rel], dtype=np.int32)),
            )
        asn_of = np.fromiter(self._nodes, dtype=np.int64, count=n)
        order = np.argsort(asn_of, kind="stable")
        self._compiled = CompiledGraph(
            asn_of=frozen(asn_of),
            row_of=row_of,
            provider_indptr=csr[Relationship.PROVIDER][0],
            provider_indices=csr[Relationship.PROVIDER][1],
            peer_indptr=csr[Relationship.PEER][0],
            peer_indices=csr[Relationship.PEER][1],
            customer_indptr=csr[Relationship.CUSTOMER][0],
            customer_indices=csr[Relationship.CUSTOMER][1],
            all_indptr=frozen(np.cumsum(all_counts)),
            all_indices=frozen(np.array(all_columns, dtype=np.int32)),
            all_rel=frozen(np.array(all_rel, dtype=np.int8)),
            _sorted_asns=frozen(asn_of[order]),
            _sorted_rows=frozen(order.astype(np.int64)),
        )
        return self._compiled

    def node(self, asn: int) -> AsNode:
        """Look up one AS by number."""
        try:
            return self._nodes[asn]
        except KeyError:
            raise KeyError(f"AS {asn} not in graph") from None

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def asns(self) -> list[int]:
        """All ASNs, in insertion order."""
        return list(self._nodes)

    def nodes(self) -> list[AsNode]:
        """All AS nodes, in insertion order."""
        return list(self._nodes.values())

    def neighbors(self, asn: int) -> dict[int, Relationship]:
        """Neighbors of *asn* with their relationship as seen from it."""
        if asn not in self._nodes:
            raise KeyError(f"AS {asn} not in graph")
        return dict(self._adjacency[asn])

    def neighbors_by_rel(self, asn: int, rel: Relationship) -> list[int]:
        """Neighbors of *asn* that play the given role for it."""
        if asn not in self._nodes:
            raise KeyError(f"AS {asn} not in graph")
        return [n for n, r in self._adjacency[asn].items() if r is rel]

    def providers(self, asn: int) -> list[int]:
        """ASes that provide transit to *asn*."""
        return self.neighbors_by_rel(asn, Relationship.PROVIDER)

    def customers(self, asn: int) -> list[int]:
        """ASes buying transit from *asn*."""
        return self.neighbors_by_rel(asn, Relationship.CUSTOMER)

    def peers(self, asn: int) -> list[int]:
        """Settlement-free peers of *asn*."""
        return self.neighbors_by_rel(asn, Relationship.PEER)

    def edge_count(self) -> int:
        """Number of undirected links."""
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    def validate(self) -> None:
        """Check structural invariants; raises on violation.

        * every link is symmetric with inverse relationships,
        * no AS is isolated (everything should reach the core).
        """
        for asn, adj in self._adjacency.items():
            if not adj:
                raise ValueError(f"AS {asn} is isolated")
            for neighbor, rel in adj.items():
                mirror = self._adjacency[neighbor].get(asn)
                if mirror is not rel.inverse:
                    raise ValueError(
                        f"asymmetric link {asn}-{neighbor}: {rel} vs {mirror}"
                    )
