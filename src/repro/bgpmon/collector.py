"""BGPmon-style route collectors (paper section 2.4.3).

BGPmon peers with dozens of routers holding full tables; the paper
uses 152 peers to count route changes around the events (Fig. 9).
Our collectors are a sample of ASes (biased towards North America, as
the paper notes its BGP vantage points were) that observe an update
whenever their best route for a letter's prefix changes.  Each
best-path change at a peer surfaces as a small burst of updates
(path exploration), modelled as a Poisson count per change.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..netsim.topology import Topology
from ..util.arrays import frozen
from ..util.timegrid import Interval, TimeGrid

if TYPE_CHECKING:
    from ..rootdns.deployment import RoutingAction

#: Mean BGP updates a collector peer logs per best-path change
#: (path exploration / MRAI batching).
UPDATES_PER_CHANGE = 2.5


@dataclass(frozen=True, slots=True)
class BgpmonConfig:
    """Knobs for the collector fleet."""

    n_peers: int = 152
    na_bias: float = 0.6

    def __post_init__(self) -> None:
        if self.n_peers <= 0:
            raise ValueError("need at least one collector peer")
        if not 0.0 <= self.na_bias <= 1.0:
            raise ValueError("na_bias must be within [0, 1]")


class BgpCollectors:
    """A fixed set of collector peers (``peer_asns`` is read-only)."""

    def __init__(self, peer_asns: np.ndarray) -> None:
        peer_asns = np.asarray(peer_asns, dtype=np.int64)
        if peer_asns.size == 0:
            raise ValueError("collector fleet cannot be empty")
        self.peer_asns = frozen(peer_asns)
        self._peer_set = frozenset(int(a) for a in peer_asns)

    def __setstate__(self, state: dict[str, object]) -> None:
        # NumPy unpickles arrays writable: freeze it again.
        self.__dict__.update(state)
        frozen(self.peer_asns)

    def __len__(self) -> int:
        return int(self.peer_asns.size)

    def route_changes_per_bin(
        self,
        actions: Sequence[RoutingAction],
        grid: TimeGrid,
        rng: np.random.Generator,
        peer_outages: tuple[tuple[Interval, frozenset[int]], ...] = (),
    ) -> np.ndarray:
        """Updates observed per bin for one letter's routing *actions*
        (``LetterDeployment.actions``; Fig. 9).

        Actions outside the grid, and those that moved no route, are
        ignored; neither draws from *rng*.
        *peer_outages* lists ``(interval, down_peer_asns)`` windows
        (collector-peer churn, ``repro.faults``): a peer that is down
        when a transition happens does not observe it, so the counted
        churn is partial exactly as a real collector fleet's would be.
        """
        counts = np.zeros(grid.n_bins, dtype=np.float64)
        for record in actions:
            if not grid.start <= record.timestamp < grid.end:
                continue
            peers = self._peer_set
            for interval, down in peer_outages:
                if interval.contains(record.timestamp):
                    peers = peers - down
            affected = len(peers & record.changed_asns)
            if affected == 0:
                continue
            updates = rng.poisson(UPDATES_PER_CHANGE, size=affected).sum()
            counts[grid.bin_index(record.timestamp)] += float(updates)
        return counts


def build_collectors(
    topology: Topology, config: BgpmonConfig, rng: np.random.Generator
) -> BgpCollectors:
    """Sample the collector fleet from the topology's ASes.

    Peers are stub and transit ASes, biased towards North America.
    """
    candidates = list(topology.stub_asns) + list(topology.transit_asns)
    regions = []
    for asn in candidates:
        name = topology.graph.node(asn).name
        regions.append("NA" if "-NA" in name or "transit" in name else "X")
    regions = np.array(regions)
    candidates = np.array(candidates, dtype=np.int64)

    weights = np.where(regions == "NA", config.na_bias, 1.0 - config.na_bias)
    weights = weights / weights.sum()
    size = min(config.n_peers, candidates.size)
    chosen = rng.choice(candidates, size=size, replace=False, p=weights)
    return BgpCollectors(chosen)
