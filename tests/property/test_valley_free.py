"""Route selection always yields valley-free (Gao-Rexford) paths.

:func:`repro.netsim.bgp.propagate` implements export policy in three
stages; this property checks the *outcome* independently: walk every
selected route's AS path hop by hop and verify it climbs through
providers, crosses at most one peering edge, then only descends to
customers.  A valley (customer route re-exported uphill) would let
traffic transit an edge network, which real routing policy -- and the
paper's catchment analysis -- forbids.

Topologies, deployed letters, and withdrawal subsets are all drawn by
hypothesis, so the check covers partial-withdrawal states the fixed
scenario tests never visit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.asgraph import ASGraph, Relationship
from repro.netsim.topology import TopologyConfig, build_topology
from repro.rootdns.deployment import ActionKind, build_deployments
from repro.rootdns.letters import LETTERS_SPEC
from repro.util.rng import component_rng


def _is_valley_free(graph: ASGraph, path: tuple[int, ...]) -> bool:
    """Check Gao-Rexford validity of an origin-first AS path.

    A hop ``(u, v)`` means *v* learned the route from *u*;
    ``graph.neighbors(u)[v]`` classifies *v* from *u*'s point of view,
    so PROVIDER is an uphill hop, CUSTOMER a downhill one.
    """
    descending = False
    for u, v in zip(path, path[1:]):
        rel = graph.neighbors(u).get(v)
        if rel is None:  # hop without a link: corrupt path
            return False
        if rel is Relationship.CUSTOMER:
            descending = True
        elif descending:
            # Uphill or peer hop after the path started descending
            # (or after its one peer crossing): a valley.
            return False
        elif rel is Relationship.PEER:
            descending = True  # at most one peer edge, then down only
    return True


@settings(max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_stubs=st.integers(10, 40),
    letter=st.sampled_from(sorted(LETTERS_SPEC)),
    data=st.data(),
)
def test_selected_routes_are_valley_free(seed, n_stubs, letter, data):
    topology = build_topology(
        TopologyConfig(n_stubs=n_stubs), component_rng(seed, "topology")
    )
    deployment = build_deployments(
        topology, letters={letter: LETTERS_SPEC[letter]}
    )[letter]
    withdrawn = data.draw(
        st.sets(st.sampled_from(deployment.site_order)),
        label="withdrawn sites",
    )
    for code in sorted(withdrawn):
        deployment.act(code, ActionKind.WITHDRAW, 0.0, "policy")

    table = deployment.prefix.routing()
    graph = topology.graph
    routed = 0
    for asn in graph.asns:
        route = table.route(asn)
        if route is None:
            continue
        routed += 1
        assert route.path[0] == route.origin_asn
        assert route.path[-1] == asn
        assert _is_valley_free(graph, route.path), (asn, route.path)
    if deployment.prefix.announced_sites():
        # As long as anything is announced, at least the origin hosts
        # themselves hold routes; an empty table would mean the check
        # above vacuously passed.
        assert routed > 0
