"""The array propagation kernel is bit-identical to the scalar reference.

:func:`repro.netsim.bgp.propagate` (array kernel) must reproduce
:func:`repro.netsim.bgp_reference.propagate` exactly: the same winner
at every AS, the same tie-break floats, the same AS paths (including
the reference's stale-snapshot quirk, where a route keeps the path its
predecessor held at export time), and the same table iteration order
(the reference's dict-insertion order, which downstream consumers can
observe through ``catchments()``).  ``RoutingTable.changes_from``
between two states must report exactly the ASes whose reference route
differs, on kernel tables and on the reference's packed tables
(:func:`repro.netsim.bgp_reference.table`) alike.

Topologies, origin subsets, announcement scopes, blocked-neighbor
sets, locations, and preference discounts are all drawn by hypothesis;
a failing example here is a kernel ordering bug, not flakiness.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import bgp_reference
from repro.netsim.asgraph import ASGraph, AsNode, Relationship
from repro.netsim.bgp import Origin, Route, RoutingTable, Scope, propagate
from repro.util import Location


@st.composite
def graph_and_origins(draw):
    """A random AS graph plus a random announcement state.

    Provider edges orient low ASN -> high ASN so the transit hierarchy
    is acyclic; up to eight origins draw scope, location (sometimes
    absent), export-blocking, and tie-break discounts independently.
    Origin ASes and site ids intentionally collide sometimes (two
    origins may share a host AS or announce the same site name),
    because the reference makes its offers in sequence and resolves
    per-site lookups last-origin-wins, and the kernel must match that
    too.
    """
    n = draw(st.integers(min_value=3, max_value=14))
    graph = ASGraph()
    for asn in range(1, n + 1):
        graph.add_as(
            AsNode(
                asn=asn,
                location=Location(
                    draw(st.floats(min_value=-60, max_value=60)),
                    draw(st.floats(min_value=-170, max_value=170)),
                ),
            )
        )
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            kind = draw(st.sampled_from(["none", "none", "cust", "peer"]))
            if kind == "cust":
                graph.add_link(a, b, Relationship.PROVIDER)
            elif kind == "peer":
                graph.add_link(a, b, Relationship.PEER)
    # Origin ASes may repeat: stage 1's "a later, smaller offer
    # supersedes" rule and local origins competing for one host only
    # show with two origins on one AS.
    origin_asns = draw(
        st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=8)
    )
    origins = []
    for asn in origin_asns:
        site = draw(st.sampled_from([f"S{asn}", "SHARED"]))
        blocked = draw(
            st.frozensets(
                st.sampled_from(sorted(graph.neighbors(asn)) or [asn]),
                max_size=2,
            )
        )
        origins.append(
            Origin(
                site=site,
                asn=asn,
                scope=draw(st.sampled_from([Scope.GLOBAL, Scope.LOCAL])),
                location=draw(
                    st.sampled_from([None, graph.node(asn).location])
                ),
                blocked_neighbors=blocked,
                preference_discount=draw(
                    st.sampled_from([0.0, 0.25, 0.5])
                ),
            )
        )
    return graph, origins


def assert_tables_identical(table: RoutingTable, ref: dict[int, Route]):
    """*table* holds exactly the reference's routes, in its order."""
    routes = table.routes()
    # Same ASes, in the same (install) order -- catchments() and any
    # other dict-order-sensitive consumer sees no difference.
    assert list(routes) == list(ref)
    for asn, expected in ref.items():
        assert routes[asn] == expected, asn
    catchments: dict[str, set[int]] = {}
    for asn, route in ref.items():
        catchments.setdefault(route.site, set()).add(asn)
    assert table.catchments() == catchments
    assert list(table.catchments()) == list(catchments)
    assert table.reachable_asns() == set(ref)
    assert len(table) == len(ref)


def reference_changes(
    before: dict[int, Route], after: dict[int, Route]
) -> set[int]:
    """ASes whose reference route differs between two states."""
    return {
        asn
        for asn in before.keys() | after.keys()
        if before.get(asn) != after.get(asn)
    }


class TestKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(data=graph_and_origins())
    def test_routes_bit_identical(self, data):
        graph, origins = data
        ref = bgp_reference.propagate(graph, origins)
        assert_tables_identical(propagate(graph, origins), ref)
        assert_tables_identical(bgp_reference.table(graph, origins), ref)

    @settings(max_examples=60, deadline=None)
    @given(data=graph_and_origins(), subset=st.data())
    def test_withdrawal_states_match(self, data, subset):
        # Origin subsets model withdrawals, down to none at all; the
        # delta between two announcement states must be the
        # reference's.
        graph, origins = data
        keep = subset.draw(
            st.sets(st.sampled_from(range(len(origins)))),
            label="kept origin indices",
        )
        reduced = [o for i, o in enumerate(origins) if i in keep]
        kernel_full = propagate(graph, origins)
        ref_full = bgp_reference.propagate(graph, origins)
        kernel_part = propagate(graph, reduced)
        ref_part = bgp_reference.propagate(graph, reduced)
        assert_tables_identical(kernel_part, ref_part)
        expected = reference_changes(ref_full, ref_part)
        assert kernel_part.changes_from(kernel_full) == expected
        assert kernel_full.changes_from(kernel_part) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=graph_and_origins(), edits=st.data())
    def test_changes_from_matches_reference(self, data, edits):
        # One site flap: kernel tables, the reference's packed tables
        # and every mixed pairing must report the ASes whose reference
        # route changed, in both directions.
        graph, origins = data
        site = edits.draw(
            st.sampled_from(sorted({o.site for o in origins})),
            label="flap",
        )
        after = [o for o in origins if o.site != site]
        expected = reference_changes(
            bgp_reference.propagate(graph, origins),
            bgp_reference.propagate(graph, after),
        )
        befores = (
            propagate(graph, origins), bgp_reference.table(graph, origins)
        )
        afters = (propagate(graph, after), bgp_reference.table(graph, after))
        for before_table in befores:
            for after_table in afters:
                assert after_table.changes_from(before_table) == expected
                assert before_table.changes_from(after_table) == expected
        assert befores[0].changes_from(befores[1]) == set()
        assert afters[1].changes_from(afters[0]) == set()

    @settings(max_examples=60, deadline=None)
    @given(data=graph_and_origins())
    def test_single_route_queries_match(self, data):
        # route()/site_of()/sites_of() take the single-row and gather
        # paths on the kernel table; each must agree with the
        # reference's routes.
        graph, origins = data
        kernel = propagate(graph, origins)
        ref = bgp_reference.propagate(graph, origins)
        for asn in graph.asns:
            route = ref.get(asn)
            assert kernel.route(asn) == route
            assert kernel.site_of(asn) == (
                None if route is None else route.site
            )
        assert kernel.route(10_000) is None
        site_index = {o.site: i for i, o in enumerate(origins)}
        asns = graph.asns + [10_000]
        expected = [
            site_index[ref[asn].site] if asn in ref else -1 for asn in asns
        ]
        assert kernel.sites_of(asns, site_index).tolist() == expected


def valley_free_reach(graph: ASGraph, asns: list[int]) -> set[int]:
    """Every AS a route from *asns* can reach under Gao-Rexford export,
    by graph search: up provider edges, at most one peer edge, then
    down customer edges."""
    up = set(asns)
    stack = list(asns)
    while stack:
        for provider in graph.providers(stack.pop()):
            if provider not in up:
                up.add(provider)
                stack.append(provider)
    reach = set(up)
    for asn in up:
        reach.update(graph.peers(asn))
    stack = list(reach)
    while stack:
        for customer in graph.customers(stack.pop()):
            if customer not in reach:
                reach.add(customer)
                stack.append(customer)
    return reach


class TestReachability:
    @settings(max_examples=100, deadline=None)
    @given(data=graph_and_origins())
    def test_global_origins_reach_their_valley_free_closure(self, data):
        # Independent of the reference: with nothing blocked, global
        # origins reach exactly the valley-free closure of their ASes
        # -- the whole graph when an origin tops a connected hierarchy.
        graph, origins = data
        unblocked = [
            dataclasses.replace(
                o, scope=Scope.GLOBAL, blocked_neighbors=frozenset()
            )
            for o in origins
        ]
        table = propagate(graph, unblocked)
        assert table.reachable_asns() == valley_free_reach(
            graph, [o.asn for o in unblocked]
        )
