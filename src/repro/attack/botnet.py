"""Botnet model: where the event traffic enters the Internet.

The event's *source addresses* were spoofed (895 M distinct addresses
seen at A+J, paper section 2.3), so they say nothing about where the
traffic came from.  What shapes per-site load is where the traffic
*enters* -- the ASes hosting the actual senders.  Verisign attributed
the events to a botnet, and the top 200 sources carried 68 % of the
queries, i.e. the ingress distribution was highly concentrated.

We model the botnet as weighted clusters in stub ASes:

* **hotspot clusters** near configured metros carry the bulk of the
  volume (the concentration the paper reports); some of them sit at
  IXP-dense metros whose root sites then bear the brunt;
* a **Zipf tail** over random stubs carries the rest.

Per-site attack load is then emergent: each bot cluster's traffic is
routed by the same BGP catchments as everyone else's, so withdrawing a
site moves its bots (and their load) to the next-best site -- the
waterbed effect of section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netsim.bgp import RoutingTable
from ..netsim.topology import Topology
from ..util.airports import airport
from ..util.arrays import frozen

#: Default hotspot volume shares; about two thirds of the traffic,
#: matching the "top 200 sources sent 68 %" concentration.
DEFAULT_HOTSPOTS = {
    "LHR": 0.13,
    "FRA": 0.12,
    "NRT": 0.10,
    "AMS": 0.08,
    "IAD": 0.07,
    "PAO": 0.04,
    "CDG": 0.035,
    "WAW": 0.04,
    "SYD": 0.05,
    "NLV": 0.03,
}


@dataclass(frozen=True, slots=True)
class BotnetConfig:
    """Knobs for botnet placement."""

    hotspots: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_HOTSPOTS)
    )
    clusters_per_hotspot: int = 6
    hotspot_radius_km: float = 150.0
    n_tail_clusters: int = 180
    zipf_alpha: float = 1.3
    #: Effective size of the spoofed source pool (section 3.1 infers
    #: on the order of 2 G addresses across the events).
    spoof_pool_size: int = 2**31

    def __post_init__(self) -> None:
        total = sum(self.hotspots.values())
        if not 0.0 < total < 1.0:
            raise ValueError(
                f"hotspot shares must sum into (0, 1), got {total}"
            )
        if self.clusters_per_hotspot < 1:
            raise ValueError("need at least one cluster per hotspot")
        if self.n_tail_clusters < 1:
            raise ValueError("need at least one tail cluster")
        if self.zipf_alpha <= 1.0:
            raise ValueError("zipf_alpha must exceed 1")

    @property
    def tail_share(self) -> float:
        """Volume share carried by the Zipf tail."""
        return 1.0 - sum(self.hotspots.values())


class Botnet:
    """Placed botnet: cluster ASNs and their volume weights, both
    read-only."""

    def __init__(self, asns: np.ndarray, weights: np.ndarray) -> None:
        asns = np.asarray(asns, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if asns.shape != weights.shape or asns.ndim != 1:
            raise ValueError("asns and weights must be 1-D and aligned")
        if asns.size == 0:
            raise ValueError("botnet cannot be empty")
        if (weights < 0).any():
            raise ValueError("weights cannot be negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.asns = frozen(asns)
        self.weights = frozen(weights / total)

    def __setstate__(self, state: dict[str, np.ndarray]) -> None:
        # NumPy unpickles arrays writable: freeze them again.
        self.__dict__.update(state)
        frozen(self.asns)
        frozen(self.weights)

    def __len__(self) -> int:
        return self.asns.size

    def load_shares_by_site(self, table: RoutingTable) -> dict[str, float]:
        """Fraction of attack volume arriving at each site.

        Bots whose AS has no route send their traffic nowhere (it is
        dropped in transit); their share is simply absent, so values
        may sum to less than 1.
        """
        shares: dict[str, float] = {}
        for asn, weight in zip(self.asns, self.weights):
            site = table.site_of(int(asn))
            if site is None:
                continue
            shares[site] = shares.get(site, 0.0) + float(weight)
        return shares

    def site_share_vector(
        self, table: RoutingTable, site_index: dict[str, int]
    ) -> np.ndarray:
        """Per-site attack shares as an array indexed by *site_index*.

        Bit-identical to scattering :meth:`load_shares_by_site`: the
        catchment gather is vectorised (``sites_of`` reads the same
        best-route arrays as per-AS ``site_of``), and ``np.add.at``
        accumulates weights element by element in ``asns`` order --
        the exact addition sequence of the dict variant.  The engine
        caches one vector per routing-table version and turns the
        per-bin share lookup into pure array arithmetic.
        """
        vector = np.zeros(len(site_index), dtype=np.float64)
        rows = table.sites_of(self.asns, site_index)
        routed = rows >= 0
        np.add.at(vector, rows[routed], self.weights[routed])
        return vector


def build_botnet(
    topology: Topology, config: BotnetConfig, rng: np.random.Generator
) -> Botnet:
    """Place bot clusters on the topology's stub ASes."""
    stub_asns = np.asarray(topology.stub_asns, dtype=np.int64)
    asns: list[int] = []
    weights: list[float] = []

    for metro, share in sorted(config.hotspots.items()):
        center = airport(metro).location
        distances = topology.stub_distances(center)
        nearby = [
            topology.stub_asns[i]
            for i in np.flatnonzero(distances <= config.hotspot_radius_km)
        ]
        if not nearby:
            # Fall back to the closest stubs if the metro is sparse.
            order = np.argsort(distances, kind="stable")
            nearby = [
                topology.stub_asns[i]
                for i in order[: config.clusters_per_hotspot]
            ]
        chosen = rng.choice(
            np.asarray(nearby, dtype=np.int64),
            size=min(config.clusters_per_hotspot, len(nearby)),
            replace=False,
        )
        for asn in chosen:
            asns.append(int(asn))
            weights.append(share / len(chosen))

    # Zipf-weighted tail over random stubs.
    tail_asns = rng.choice(
        stub_asns,
        size=min(config.n_tail_clusters, stub_asns.size),
        replace=False,
    )
    ranks = np.arange(1, tail_asns.size + 1, dtype=np.float64)
    tail_weights = ranks**-config.zipf_alpha
    tail_weights *= config.tail_share / tail_weights.sum()
    asns.extend(int(a) for a in tail_asns)
    weights.extend(float(w) for w in tail_weights)

    return Botnet(np.asarray(asns), np.asarray(weights))


def expected_unique_sources(queries: float, pool_size: int) -> float:
    """Expected distinct spoofed addresses in *queries* random draws.

    Standard occupancy: ``P * (1 - (1 - 1/P)**Q)``, evaluated in log
    space for numerical stability.  Used to model the unique-IP counts
    of RSSAC-002 reports (Table 3's "M IPs" columns).
    """
    if queries < 0:
        raise ValueError("query count cannot be negative")
    if pool_size <= 0:
        raise ValueError("pool size must be positive")
    return float(pool_size * -np.expm1(queries * np.log1p(-1.0 / pool_size)))
