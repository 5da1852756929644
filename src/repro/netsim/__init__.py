"""Network substrate: AS graph, BGP propagation, topology, overload."""

from .anycast import AnycastPrefix, RouteChangeRecord
from .asgraph import ASGraph, AsNode, AsRole, CompiledGraph, Relationship
from .bgp import Origin, Route, RouteClass, RoutingTable, Scope, propagate
from .bgp_reference import propagate as propagate_reference
from .queueing import OverloadModel
from .topology import (
    ATLAS_REGION_WEIGHTS,
    TRANSIT_METROS,
    Topology,
    TopologyConfig,
    build_topology,
)

#: Always zero; kept only because perfbench/child.py:31 imports it.
DELTA_STATS: dict[str, int] = {
    "delta": 0, "fallback": 0, "ripple_bailouts": 0,
    "levels_copied": 0, "levels_replayed": 0,
}

__all__ = [
    "ASGraph",
    "ATLAS_REGION_WEIGHTS",
    "AnycastPrefix",
    "AsNode",
    "AsRole",
    "CompiledGraph",
    "DELTA_STATS",
    "Origin",
    "OverloadModel",
    "Relationship",
    "Route",
    "RouteChangeRecord",
    "RouteClass",
    "RoutingTable",
    "Scope",
    "TRANSIT_METROS",
    "Topology",
    "TopologyConfig",
    "build_topology",
    "propagate",
    "propagate_reference",
]
