"""Synthetic Internet topology: transit core, stub edges, site hosts.

The reproduction needs an Internet for BGP to run over.  We build a
two-tier topology that captures what matters for anycast catchments:

* a full mesh of **transit** ASes placed at major interconnection
  metros (the tier-1 core);
* **stub** ASes (eyeball networks hosting vantage points and botnet
  members) attached as customers of their one or two geographically
  nearest transits -- so a stub's traffic enters the core near the
  stub;
* **site-host** ASes created on demand for each anycast site, attached
  as customers of the transits nearest the site; *local* sites
  additionally peer directly with nearby stubs (the IXP model), which
  is where their NO_EXPORT catchment comes from.

Geographic attachment plus the geographic tie-break in
:mod:`repro.netsim.bgp` yields catchments that look like the real
ones: mostly-nearest-site, with policy exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..util.airports import AIRPORTS, airport
from ..util.geo import Location, haversine_km_vec
from .asgraph import ASGraph, AsNode, AsRole, Relationship
from .bgp import Scope

#: Metros hosting the transit core, chosen for global coverage.
TRANSIT_METROS = (
    "AMS", "LHR", "FRA", "CDG", "ARN", "WAW",
    "IAD", "JFK", "ORD", "DFW", "LAX", "SEA", "YYZ",
    "SIN", "NRT", "HKG", "BOM",
    "SYD", "GRU", "JNB", "DXB",
)

#: Region weights approximating the RIPE Atlas VP distribution
#: (heavily biased towards Europe; paper section 2.4.1).
ATLAS_REGION_WEIGHTS = {
    "EU": 0.62,
    "NA": 0.18,
    "AS": 0.08,
    "SA": 0.04,
    "OC": 0.04,
    "ME": 0.02,
    "AF": 0.02,
}

#: Relative interconnection density ("gravity") of major metros: more
#: edge networks anchor near the big IXP cities, which is why the
#: paper's K-AMS and K-LHR catchments dwarf the rest (Fig. 6b).
METRO_GRAVITY = {
    "AMS": 8.0, "LHR": 7.0, "FRA": 6.0, "CDG": 3.0, "VIE": 2.5,
    "ZRH": 2.0, "WAW": 2.0, "LED": 2.0, "ARN": 2.0, "MIL": 1.5,
    "IAD": 4.0, "JFK": 3.0, "ORD": 3.0, "LAX": 4.0, "MIA": 3.0,
    "SEA": 2.0, "PAO": 2.0,
    "NRT": 5.0, "SIN": 3.0, "HKG": 2.0,
    "SYD": 3.0,
}

_TRANSIT_ASN_BASE = 100
_STUB_ASN_BASE = 10_000
_SITE_ASN_BASE = 20_000


@dataclass(frozen=True, slots=True)
class TopologyConfig:
    """Knobs for the synthetic Internet."""

    n_stubs: int = 600
    multihome_fraction: float = 0.3
    region_weights: dict[str, float] = field(
        default_factory=lambda: dict(ATLAS_REGION_WEIGHTS)
    )
    stub_jitter_deg: float = 2.0
    local_site_ixp_radius_km: float = 200.0
    local_site_max_peers: int = 4

    def __post_init__(self) -> None:
        if self.n_stubs <= 0:
            raise ValueError("need at least one stub AS")
        if not 0.0 <= self.multihome_fraction <= 1.0:
            raise ValueError("multihome_fraction must be within [0, 1]")
        total = sum(self.region_weights.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"region weights must sum to 1, got {total}")


class Topology:
    """A built topology plus helpers for attaching anycast sites."""

    def __init__(self, graph: ASGraph, config: TopologyConfig) -> None:
        self.graph = graph
        self.config = config
        self.transit_asns: list[int] = []
        self.stub_asns: list[int] = []
        self.site_host_asns: dict[str, int] = {}
        # Site hosts number after the stubs (_STUB_ASN_BASE + i), so
        # more than 10,000 stubs pushes them past _SITE_ASN_BASE.
        self._next_site_asn = max(
            _SITE_ASN_BASE, _STUB_ASN_BASE + config.n_stubs
        )
        self._transit_coords: tuple | None = None
        self._stub_coords: tuple | None = None
        self._distance_memo: dict[
            tuple[str, int, float, float], np.ndarray
        ] = {}

    def _coords(self, asns: list[int], cache: tuple | None) -> tuple:
        """(n, lats, lons) for *asns*, rebuilt when the list grew."""
        if cache is not None and cache[0] == len(asns):
            return cache
        lats = np.array(
            [self.graph.node(a).location.lat for a in asns],
            dtype=np.float64,
        )
        lons = np.array(
            [self.graph.node(a).location.lon for a in asns],
            dtype=np.float64,
        )
        return (len(asns), lats, lons)

    def _distances(
        self, kind: str, coords: tuple, location: Location
    ) -> np.ndarray:
        """Distance row, memoised per (AS list length, location).

        Many sites share a metro, so the same great-circle row is
        requested over and over during substrate build; the memo key
        includes the list length so a grown AS list invalidates it.
        """
        key = (kind, coords[0], location.lat, location.lon)
        row = self._distance_memo.get(key)
        if row is None:
            _, lats, lons = coords
            row = haversine_km_vec(lats, lons, location.lat, location.lon)
            self._distance_memo[key] = row
        return row

    def transit_distances(self, location: Location) -> np.ndarray:
        """Distance from *location* to every transit AS (list order)."""
        self._transit_coords = self._coords(
            self.transit_asns, self._transit_coords
        )
        return self._distances("transit", self._transit_coords, location)

    def stub_distances(self, location: Location) -> np.ndarray:
        """Distance from *location* to every stub AS (list order)."""
        self._stub_coords = self._coords(self.stub_asns, self._stub_coords)
        return self._distances("stub", self._stub_coords, location)

    def nearest_transits(self, location: Location, k: int = 2) -> list[int]:
        """The *k* transit ASes closest to *location*."""
        distances = self.transit_distances(location)
        order = np.argsort(distances, kind="stable")[:k]
        return [self.transit_asns[i] for i in order]

    def stubs_within(self, location: Location, radius_km: float) -> list[int]:
        """Stub ASes within *radius_km* of *location*."""
        if not self.stub_asns:
            return []
        distances = self.stub_distances(location)
        return [
            self.stub_asns[i]
            for i in np.flatnonzero(distances <= radius_km)
        ]

    def add_site_host(
        self,
        site_label: str,
        location: Location,
        scope: Scope,
        ixp_peering: bool | None = None,
        ixp_radius_km: float | None = None,
        ixp_max_peers: int | None = None,
        n_transits: int | None = None,
    ) -> int:
        """Create the host AS for one anycast site and wire it in.

        Returns the new ASN.  Global sites become customers of their
        two nearest transits; local sites buy transit from one and peer
        with nearby stubs at the local IXP.  *ixp_peering* overrides
        the IXP default (local: on, global: off) -- big IXP-present
        global sites like K-LHR peer directly with nearby networks,
        which is where "stuck" catchments come from under partial
        withdrawal.
        """
        if site_label in self.site_host_asns:
            raise ValueError(f"site {site_label} already has a host AS")
        if ixp_peering is None:
            ixp_peering = scope is Scope.LOCAL
        asn = self._next_site_asn
        self._next_site_asn += 1
        self.graph.add_as(
            AsNode(
                asn=asn,
                location=location,
                role=AsRole.SITE_HOST,
                name=site_label,
            )
        )
        if n_transits is None:
            n_transits = 2 if scope is Scope.GLOBAL else 1
        transits = self.nearest_transits(location, k=n_transits)
        for transit in transits:
            self.graph.add_link(asn, transit, Relationship.PROVIDER)
        if ixp_peering:
            radius = (
                ixp_radius_km
                if ixp_radius_km is not None
                else self.config.local_site_ixp_radius_km
            )
            max_peers = (
                ixp_max_peers
                if ixp_max_peers is not None
                else self.config.local_site_max_peers
            )
            distances = self.stub_distances(location)
            within = np.flatnonzero(distances <= radius)
            ranked = within[
                np.argsort(distances[within], kind="stable")
            ]
            nearby = [self.stub_asns[i] for i in ranked]
            for stub in nearby[:max_peers]:
                self.graph.add_link(asn, stub, Relationship.PEER)
        self.site_host_asns[site_label] = asn
        return asn

    def stub_locations(self) -> dict[int, Location]:
        """Location of every stub AS."""
        return {
            asn: self.graph.node(asn).location for asn in self.stub_asns
        }


def build_topology(
    config: TopologyConfig, rng: np.random.Generator
) -> Topology:
    """Build the transit core and the stub edge."""
    graph = ASGraph()
    topo = Topology(graph, config)

    # Transit core: full peer mesh.
    for i, code in enumerate(TRANSIT_METROS):
        asn = _TRANSIT_ASN_BASE + i
        graph.add_as(
            AsNode(
                asn=asn,
                location=airport(code).location,
                role=AsRole.TRANSIT,
                name=f"transit-{code}",
            )
        )
        topo.transit_asns.append(asn)
    for i, a in enumerate(topo.transit_asns):
        for b in topo.transit_asns[i + 1 :]:
            graph.add_link(a, b, Relationship.PEER)

    # Stub edge: placed around airports sampled by region weight.
    regions = sorted(config.region_weights)
    weights = np.array([config.region_weights[r] for r in regions])
    region_airports = {
        r: [ap for ap in AIRPORTS.values() if ap.region == r] for r in regions
    }
    region_choices = rng.choice(len(regions), size=config.n_stubs, p=weights)
    gravity = {
        r: np.array(
            [METRO_GRAVITY.get(ap.code, 1.0) for ap in region_airports[r]]
        )
        for r in regions
    }
    for r in regions:
        if region_airports[r]:
            gravity[r] = gravity[r] / gravity[r].sum()
    for i in range(config.n_stubs):
        region = regions[region_choices[i]]
        anchor = region_airports[region][
            rng.choice(len(region_airports[region]), p=gravity[region])
        ]
        lat = float(
            np.clip(
                anchor.location.lat
                + rng.normal(0.0, config.stub_jitter_deg),
                -89.0,
                89.0,
            )
        )
        lon = float(
            ((anchor.location.lon + rng.normal(0.0, config.stub_jitter_deg))
             + 180.0) % 360.0 - 180.0
        )
        location = Location(lat, lon)
        asn = _STUB_ASN_BASE + i
        graph.add_as(
            AsNode(
                asn=asn,
                location=location,
                role=AsRole.STUB,
                name=f"stub-{region}-{i}",
            )
        )
        nearest = topo.nearest_transits(location, k=2)
        graph.add_link(asn, nearest[0], Relationship.PROVIDER)
        if rng.random() < config.multihome_fraction and len(nearest) > 1:
            graph.add_link(asn, nearest[1], Relationship.PROVIDER)
        topo.stub_asns.append(asn)

    graph.validate()
    return topo


# ---------------------------------------------------------------------------
# Internet-scale synthetic topologies (CAIDA as-rel2 format)
# ---------------------------------------------------------------------------

#: Golden-ratio conjugates used to derive deterministic pseudo-random
#: coordinates from an ASN alone, so a graph loaded from an as-rel2
#: file (which carries no geography) gets the same locations the
#: generator assigned.
_LOC_PHI_LAT = 0.6180339887498949
_LOC_PHI_LON = 0.7548776662466927


def synthetic_location(asn: int) -> Location:
    """Deterministic location for a synthetic AS, derived from its ASN.

    Anchors each AS at a transit metro (cycling through
    :data:`TRANSIT_METROS`) and jitters it by a few degrees using
    low-discrepancy sequences, so geography is a pure function of the
    ASN -- no RNG, no serialization needed.
    """
    anchor = airport(TRANSIT_METROS[asn % len(TRANSIT_METROS)]).location
    lat_jit = ((asn * _LOC_PHI_LAT) % 1.0 - 0.5) * 8.0
    lon_jit = ((asn * _LOC_PHI_LON) % 1.0 - 0.5) * 8.0
    lat = min(89.0, max(-89.0, anchor.lat + lat_jit))
    lon = ((anchor.lon + lon_jit) + 180.0) % 360.0 - 180.0
    return Location(lat, lon)


@dataclass(frozen=True, slots=True)
class AsRelTopologyConfig:
    """Knobs for the internet-scale synthetic AS graph.

    The generated graph has the shape BGP propagation cares about: a
    full peer mesh among *clique_size* transit-free core ASes, a
    power-law provider hierarchy grown by preferential attachment
    (every provider draw is weighted by current customer count + 1, so
    early ASes become heavy transits and the customer-degree
    distribution is heavy-tailed), multihomed edges, and a peering
    mesh sampled with the same attachment weights (dense between
    well-connected mid-tier ASes, sparse at the edge).
    """

    n_ases: int = 50_000
    clique_size: int = 12
    multihome_fraction: float = 0.35
    #: Extra peer links per AS (beyond the clique mesh).
    peer_degree: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clique_size < 2:
            raise ValueError("clique needs at least two ASes")
        if self.n_ases <= self.clique_size:
            raise ValueError("n_ases must exceed clique_size")
        if not 0.0 <= self.multihome_fraction <= 1.0:
            raise ValueError("multihome_fraction must be within [0, 1]")
        if self.peer_degree < 0.0:
            raise ValueError("peer_degree must be non-negative")


def generate_as_rel2(
    config: AsRelTopologyConfig,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Generate an internet-scale topology's link lists.

    Returns ``(provider_links, peer_links)`` where each provider link
    is ``(customer, provider)`` and each peer link ``(a, b)`` with
    ``a < b``.  Fully deterministic in ``config.seed``.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_ases
    clique = list(range(1, config.clique_size + 1))
    provider_links: list[tuple[int, int]] = []
    peer_links: list[tuple[int, int]] = []
    linked: set[tuple[int, int]] = set()

    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            peer_links.append((a, b))
            linked.add((a, b))

    # Preferential-attachment pool: each AS appears once at birth plus
    # once per customer it gains, so a draw lands on an AS with
    # probability proportional to (customer count + 1).  Clique members
    # get a seed boost so the hierarchy grows under the core.
    pool: list[int] = []
    for asn in clique:
        pool.extend([asn] * 8)
    for asn in range(config.clique_size + 1, n + 1):
        n_providers = 1 + int(rng.random() < config.multihome_fraction)
        chosen: list[int] = []
        for _ in range(n_providers):
            for _attempt in range(8):
                provider = pool[int(rng.random() * len(pool))]
                if provider not in chosen:
                    chosen.append(provider)
                    break
        for provider in chosen:
            pair = (min(asn, provider), max(asn, provider))
            provider_links.append((asn, provider))
            linked.add(pair)
            pool.append(provider)
        pool.append(asn)

    n_peer = int(config.peer_degree * n)
    for _ in range(n_peer):
        a = pool[int(rng.random() * len(pool))]
        b = pool[int(rng.random() * len(pool))]
        if a == b:
            continue
        pair = (min(a, b), max(a, b))
        if pair in linked:
            continue
        peer_links.append(pair)
        linked.add(pair)
    return provider_links, peer_links


def graph_from_links(
    provider_links: list[tuple[int, int]],
    peer_links: list[tuple[int, int]],
) -> ASGraph:
    """Assemble an :class:`ASGraph` from as-rel2 link lists.

    ASes appearing as a provider of anyone get the ``TRANSIT`` role,
    the rest are ``STUB``; locations come from
    :func:`synthetic_location`.
    """
    providers = {p for _, p in provider_links}
    asns = sorted(
        {a for link in provider_links for a in link}
        | {a for link in peer_links for a in link}
    )
    graph = ASGraph()
    for asn in asns:
        role = AsRole.TRANSIT if asn in providers else AsRole.STUB
        graph.add_as(
            AsNode(
                asn=asn,
                location=synthetic_location(asn),
                role=role,
                name=f"as{asn}",
            )
        )
    for customer, provider in provider_links:
        graph.add_link(customer, provider, Relationship.PROVIDER)
    for a, b in peer_links:
        graph.add_link(a, b, Relationship.PEER)
    return graph


def build_internet_graph(config: AsRelTopologyConfig) -> ASGraph:
    """Generate a deterministic internet-scale AS graph."""
    provider_links, peer_links = generate_as_rel2(config)
    return graph_from_links(provider_links, peer_links)


def dump_as_rel2(graph: ASGraph, path: "str | Path") -> None:
    """Write *graph* in CAIDA as-rel2 serial-2 format.

    One relationship per line: ``<provider>|<customer>|-1`` for
    transit, ``<a>|<b>|0`` for peering (each link once, smaller ASN
    first), sorted numerically so output is deterministic.
    """
    transit: list[tuple[int, int]] = []
    peering: list[tuple[int, int]] = []
    for asn in sorted(graph.asns):
        for neighbor in sorted(graph.customers(asn)):
            transit.append((asn, neighbor))
        for neighbor in sorted(graph.peers(asn)):
            if asn < neighbor:
                peering.append((asn, neighbor))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# synthetic as-rel2 topology (repro.netsim.topology)\n")
        fh.write(f"# ases: {len(graph)}\n")
        for provider, customer in sorted(transit):
            fh.write(f"{provider}|{customer}|-1\n")
        for a, b in sorted(peering):
            fh.write(f"{a}|{b}|0\n")


def load_as_rel2(path: "str | Path") -> ASGraph:
    """Load a CAIDA as-rel2 serial-2 file into an :class:`ASGraph`.

    Accepts the standard format: ``#`` comments, ``a|b|-1`` (a
    provides transit to b) and ``a|b|0`` (peers); a trailing
    ``|source`` field, as found in published CAIDA files, is
    tolerated.  Locations and roles are reconstructed exactly as the
    generator would assign them, so ``load(dump(g))`` reproduces *g*.
    """
    provider_links: list[tuple[int, int]] = []
    peer_links: list[tuple[int, int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) < 3:
                raise ValueError(
                    f"{path}:{lineno}: expected a|b|rel, got {line!r}"
                )
            a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
            if rel == -1:
                provider_links.append((b, a))
            elif rel == 0:
                peer_links.append((min(a, b), max(a, b)))
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown relationship {rel}"
                )
    return graph_from_links(provider_links, peer_links)
