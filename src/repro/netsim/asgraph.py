"""AS-level topology with business relationships.

BGP route propagation (and therefore anycast catchment formation) is
governed by the commercial relationships between autonomous systems:
customers buy transit from providers, and peers exchange their own and
their customers' routes settlement-free (Gao-Rexford).  This module
holds the graph; :mod:`repro.netsim.bgp` propagates routes over it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

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


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark *array* read-only and return it (compiled views are shared)."""
    array.flags.writeable = False
    return array


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
    """An immutable CSR view of one :class:`ASGraph` structure version.

    Rows are ASes in graph insertion order (``asn_of[row]`` is the ASN,
    ``row_of[asn]`` the row).  For each business relationship there is
    one CSR adjacency: ``provider_indices[provider_indptr[i]:
    provider_indptr[i + 1]]`` are the rows of AS *i*'s transit
    providers, in the order the links were added -- the same order the
    scalar reference implementation visits them, which the array
    kernel's deterministic tie-breaking relies on.

    Obtained from :meth:`ASGraph.compiled`, which caches one instance
    per :attr:`ASGraph.version`; all arrays are read-only.
    """

    version: int
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

    @property
    def n_nodes(self) -> int:
        return int(self.asn_of.size)

    @classmethod
    def array_fields(cls) -> tuple[str, ...]:
        """Names of every ndarray field, in declaration order."""
        return _COMPILED_ARRAY_FIELDS

    @classmethod
    def from_arrays(
        cls, version: int, arrays: Mapping[str, np.ndarray]
    ) -> "CompiledGraph":
        """Rebuild a compiled view from its named arrays.

        The from-buffer constructor of the zero-copy sweep path: the
        arrays typically live in a ``multiprocessing.shared_memory``
        segment created by another process.  ``row_of`` is derived
        from ``asn_of`` (rows are insertion order by construction), so
        the only non-array state a caller must supply is *version*.
        Arrays that are not already read-only are frozen, preserving
        the invariant that compiled views are immutable.
        """
        missing = [
            name for name in _COMPILED_ARRAY_FIELDS if name not in arrays
        ]
        if missing:
            raise ValueError(
                f"CompiledGraph.from_arrays missing arrays: {missing}"
            )
        asn_of = arrays["asn_of"]
        row_of = {int(asn): row for row, asn in enumerate(asn_of)}
        fields: dict[str, np.ndarray] = {}
        for name in _COMPILED_ARRAY_FIELDS:
            array = arrays[name]
            if array.flags.writeable:
                array = _frozen(array)
            fields[name] = array
        return cls(version=version, row_of=row_of, **fields)

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
    """A mutable AS-level topology.

    Adjacency is stored per node as ``{neighbor_asn: relationship}``
    where the relationship is expressed from the node's own viewpoint.
    """

    _nodes: dict[int, AsNode] = field(default_factory=dict)
    _adjacency: dict[int, dict[int, Relationship]] = field(default_factory=dict)
    #: Monotonic structure token: bumped on every node or link change,
    #: so derived data (coordinate arrays, tie-break distance memos)
    #: can key caches on it instead of object identity.
    _version: int = 0
    _coord_cache: (
        tuple[int, dict[int, int], np.ndarray, np.ndarray] | None
    ) = None
    _distance_cache: dict[int, np.ndarray] = field(default_factory=dict)
    _csr_cache: CompiledGraph | None = None

    @property
    def version(self) -> int:
        """Monotonic token identifying the current graph structure."""
        return self._version

    def add_as(self, node: AsNode) -> None:
        """Add an AS; re-adding an existing ASN is an error."""
        if node.asn in self._nodes:
            raise ValueError(f"AS {node.asn} already in graph")
        self._nodes[node.asn] = node
        self._adjacency[node.asn] = {}
        self._version += 1

    def add_link(self, asn: int, neighbor: int, rel: Relationship) -> None:
        """Add a link; *rel* is *neighbor*'s role as seen from *asn*.

        ``add_link(64500, 64501, Relationship.PROVIDER)`` means 64501
        provides transit to 64500.  The reverse direction is recorded
        automatically.
        """
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
        self._version += 1

    def coordinate_arrays(
        self,
    ) -> tuple[dict[int, int], np.ndarray, np.ndarray]:
        """``(row_of_asn, lats, lons)`` over all ASes, cached.

        Row order is insertion order.  Nodes are append-only and their
        locations immutable, so the arrays depend only on the node
        *count* -- link-only structure changes keep the cache warm.
        """
        cache = self._coord_cache
        if cache is not None and cache[0] == len(self._nodes):
            return cache[1], cache[2], cache[3]
        row_of = {asn: i for i, asn in enumerate(self._nodes)}
        lats = np.array(
            [n.location.lat for n in self._nodes.values()],
            dtype=np.float64,
        )
        lons = np.array(
            [n.location.lon for n in self._nodes.values()],
            dtype=np.float64,
        )
        self._coord_cache = (len(self._nodes), row_of, lats, lons)
        return row_of, lats, lons

    def distance_row(
        self, cache_key: int, location: Location, scale: float
    ) -> np.ndarray:
        """Distances (km × *scale*) from *location* to every AS.

        Rows align with :meth:`coordinate_arrays`; memoized per origin
        *cache_key* (callers pass the origin ASN, which uniquely
        identifies ``(location, scale)``).  Nodes are append-only with
        immutable locations, so a row stays valid until the node count
        grows -- stale-length rows are recomputed on access, and
        link-only structure changes keep the memo warm.
        """
        n_nodes = len(self._nodes)
        row = self._distance_cache.get(cache_key)
        if row is None or row.shape[0] != n_nodes:
            _, lats, lons = self.coordinate_arrays()
            row = haversine_km_vec(
                lats, lons, location.lat, location.lon
            ) * scale
            self._distance_cache[cache_key] = row
        return row

    def distance_rows(
        self, specs: list[tuple[int, Location, float]]
    ) -> list[np.ndarray]:
        """Batched :meth:`distance_row`: one row per ``(cache_key,
        location, scale)`` spec.

        Rows already memoized (and still the right length) are served
        from the cache; all misses are computed in a single broadcast
        haversine call instead of one small vectorised call per origin
        -- with hundreds of origins per letter the per-call numpy
        overhead dominates the arithmetic.  Broadcasting evaluates the
        same elementwise operations in the same order as the per-row
        call, so the cached rows are bit-identical either way.
        """
        n_nodes = len(self._nodes)
        cache = self._distance_cache
        missing = [
            (key, location, scale)
            for key, location, scale in specs
            if (row := cache.get(key)) is None or row.shape[0] != n_nodes
        ]
        if missing:
            _, lats, lons = self.coordinate_arrays()
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
                cache[key] = matrix[i] * scale
        return [cache[key] for key, _location, _scale in specs]

    def distance_memo(self) -> dict[int, np.ndarray]:
        """The per-origin distance rows valid for the *current* node
        set, keyed by origin cache key (ASN).

        Stale-length rows are excluded (they would be recomputed by
        the next :meth:`distance_row` call anyway).  Used by the
        zero-copy sweep layer to ship warm tie-break memos to workers.
        """
        n_nodes = len(self._nodes)
        return {
            key: row
            for key, row in self._distance_cache.items()
            if row.shape[0] == n_nodes
        }

    def compiled(self) -> CompiledGraph:
        """The immutable CSR view of the current structure (cached).

        One :class:`CompiledGraph` is built per :attr:`version` and
        reused across propagations; mutating the graph invalidates it.
        """
        cache = self._csr_cache
        if cache is not None and cache.version == self._version:
            return cache
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
                _frozen(np.cumsum(counts[rel])),
                _frozen(np.array(columns[rel], dtype=np.int32)),
            )
        asn_of = np.fromiter(self._nodes, dtype=np.int64, count=n)
        order = np.argsort(asn_of, kind="stable")
        self._csr_cache = CompiledGraph(
            version=self._version,
            asn_of=_frozen(asn_of),
            row_of=row_of,
            provider_indptr=csr[Relationship.PROVIDER][0],
            provider_indices=csr[Relationship.PROVIDER][1],
            peer_indptr=csr[Relationship.PEER][0],
            peer_indices=csr[Relationship.PEER][1],
            customer_indptr=csr[Relationship.CUSTOMER][0],
            customer_indices=csr[Relationship.CUSTOMER][1],
            all_indptr=_frozen(np.cumsum(all_counts)),
            all_indices=_frozen(np.array(all_columns, dtype=np.int32)),
            all_rel=_frozen(np.array(all_rel, dtype=np.int8)),
            _sorted_asns=_frozen(asn_of[order]),
            _sorted_rows=_frozen(order.astype(np.int64)),
        )
        return self._csr_cache

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
