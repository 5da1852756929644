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

A topology is built in that order -- transits, stubs, then the site
hosts the letter deployments add -- and only then routed: the graph's
first read finishes it (:mod:`repro.netsim.asgraph`), so a site host
added after routing started raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        #: Memos of the substrate build, where many sites share a metro
        #: and ask for the same rows again and again:
        #: :func:`build_topology` places every transit before the first
        #: transit query and every stub before the first stub query
        #: (site hosts and the botnet come later), so neither goes stale.
        self._coordinates: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._distance_memo: dict[tuple[str, float, float], np.ndarray] = {}

    def _distances(self, kind: str, location: Location) -> np.ndarray:
        """Distance from *location* to every AS of the ``"transit"`` or
        ``"stub"`` list, in list order (memoised)."""
        key = (kind, location.lat, location.lon)
        row = self._distance_memo.get(key)
        if row is None:
            if kind not in self._coordinates:
                asns = self.stub_asns if kind == "stub" else self.transit_asns
                places = [self.graph.node(a).location for a in asns]
                self._coordinates[kind] = (
                    np.array([p.lat for p in places], dtype=np.float64),
                    np.array([p.lon for p in places], dtype=np.float64),
                )
            lats, lons = self._coordinates[kind]
            row = haversine_km_vec(lats, lons, location.lat, location.lon)
            self._distance_memo[key] = row
        return row

    def transit_distances(self, location: Location) -> np.ndarray:
        """Distance from *location* to every transit AS (list order)."""
        return self._distances("transit", location)

    def stub_distances(self, location: Location) -> np.ndarray:
        """Distance from *location* to every stub AS (list order)."""
        return self._distances("stub", location)

    def nearest_transits(self, location: Location, k: int = 2) -> list[int]:
        """The *k* transit ASes closest to *location*."""
        distances = self.transit_distances(location)
        order = np.argsort(distances, kind="stable")[:k]
        return [self.transit_asns[i] for i in order]

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
