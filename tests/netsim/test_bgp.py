"""Tests for valley-free BGP propagation and anycast catchments."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    ASGraph,
    AsNode,
    Origin,
    Relationship,
    RouteClass,
    Scope,
    bgp_reference,
    propagate,
)
from repro.util import Location

#: Both propagation implementations as tables: the array kernel and
#: the scalar reference's routes packed by ``bgp_reference.table``.
#: Behavior-level tests run against each, so a divergence shows up as
#: a per-implementation failure, not only in the bit-equivalence
#: property test.
IMPLEMENTATIONS = [propagate, bgp_reference.table]
IMPL_IDS = ["kernel", "reference"]


def _node(asn, lat=0.0, lon=0.0):
    return AsNode(asn=asn, location=Location(lat, lon))


def _chain_graph():
    """origin 1 -cust-> 2 (transit) -peer- 3 (transit) <-cust- 4 (stub)."""
    graph = ASGraph()
    for asn in (1, 2, 3, 4):
        graph.add_as(_node(asn))
    graph.add_link(1, 2, Relationship.PROVIDER)
    graph.add_link(2, 3, Relationship.PEER)
    graph.add_link(4, 3, Relationship.PROVIDER)
    return graph


class TestPropagation:
    def test_origin_routes_to_itself(self):
        graph = _chain_graph()
        table = propagate(graph, [Origin(site="X", asn=1)])
        route = table.route(1)
        assert route.path == (1,)
        assert route.route_class is RouteClass.CUSTOMER

    def test_route_classes_along_chain(self):
        graph = _chain_graph()
        table = propagate(graph, [Origin(site="X", asn=1)])
        assert table.route(2).route_class is RouteClass.CUSTOMER
        assert table.route(3).route_class is RouteClass.PEER
        assert table.route(4).route_class is RouteClass.PROVIDER
        assert table.route(4).path == (1, 2, 3, 4)

    def test_peer_route_not_reexported_to_peer(self):
        # 1 -> 2 -peer- 3 -peer- 5: AS 5 must NOT learn via two peer hops.
        graph = _chain_graph()
        graph.add_as(_node(5))
        graph.add_link(3, 5, Relationship.PEER)
        table = propagate(graph, [Origin(site="X", asn=1)])
        assert table.route(5) is None

    def test_provider_route_not_exported_uphill(self):
        # 4 learns from its provider 3; 4's other provider 6 must not
        # learn the route from 4.
        graph = _chain_graph()
        graph.add_as(_node(6))
        graph.add_link(4, 6, Relationship.PROVIDER)
        table = propagate(graph, [Origin(site="X", asn=1)])
        assert table.route(6) is None

    def test_customer_route_preferred_over_peer(self):
        # Transit 3 can reach site A via its customer 7 or site B via
        # its peer 2; the customer route must win even if longer.
        graph = _chain_graph()
        graph.add_as(_node(7))
        graph.add_as(_node(8))
        graph.add_link(7, 3, Relationship.PROVIDER)
        graph.add_link(8, 7, Relationship.PROVIDER)
        table = propagate(
            graph,
            [Origin(site="B", asn=1), Origin(site="A", asn=8)],
        )
        route = table.route(3)
        assert route.site == "A"
        assert route.route_class is RouteClass.CUSTOMER
        assert route.path == (8, 7, 3)

    def test_shorter_path_wins_within_class(self):
        graph = ASGraph()
        for asn in (1, 2, 3, 4):
            graph.add_as(_node(asn))
        # Both origins are customers reachable uphill of 4's provider
        # chain; origin 1 is two hops, origin 3 is one hop.
        graph.add_link(1, 2, Relationship.PROVIDER)
        graph.add_link(2, 4, Relationship.PROVIDER)
        graph.add_link(3, 4, Relationship.PROVIDER)
        table = propagate(
            graph, [Origin(site="FAR", asn=1), Origin(site="NEAR", asn=3)]
        )
        assert table.route(4).site == "NEAR"

    def test_geo_tiebreak_prefers_nearby_origin(self):
        graph = ASGraph()
        graph.add_as(_node(1, lat=0, lon=0))     # origin west
        graph.add_as(_node(2, lat=0, lon=50))    # origin east
        graph.add_as(_node(3, lat=0, lon=45))    # transit near east
        graph.add_link(1, 3, Relationship.PROVIDER)
        graph.add_link(2, 3, Relationship.PROVIDER)
        origins = [
            Origin(site="W", asn=1, location=Location(0, 0)),
            Origin(site="E", asn=2, location=Location(0, 50)),
        ]
        table = propagate(graph, origins)
        assert table.route(3).site == "E"

    def test_unknown_origin_asn_rejected(self):
        graph = _chain_graph()
        with pytest.raises(KeyError):
            propagate(graph, [Origin(site="X", asn=99)])

    def test_empty_site_rejected(self):
        with pytest.raises(ValueError):
            Origin(site="", asn=1)

    def test_withdrawal_shifts_catchment(self):
        # Two origins; withdrawing one moves its ASes to the other.
        graph = ASGraph()
        for asn in (1, 2, 3, 4, 5):
            graph.add_as(_node(asn))
        graph.add_link(1, 3, Relationship.PROVIDER)
        graph.add_link(2, 4, Relationship.PROVIDER)
        graph.add_link(3, 4, Relationship.PEER)
        graph.add_link(5, 3, Relationship.PROVIDER)
        both = propagate(
            graph, [Origin(site="A", asn=1), Origin(site="B", asn=2)]
        )
        assert both.site_of(5) == "A"
        only_b = propagate(graph, [Origin(site="B", asn=2)])
        assert only_b.site_of(5) == "B"


class TestLocalScope:
    def test_local_route_stays_at_neighbors(self):
        graph = _chain_graph()
        table = propagate(
            graph, [Origin(site="L", asn=1, scope=Scope.LOCAL)]
        )
        assert table.site_of(1) == "L"
        assert table.site_of(2) == "L"  # direct provider
        assert table.site_of(3) is None  # not re-exported
        assert table.site_of(4) is None

    def test_local_customer_class_beats_global_provider_class(self):
        # Stub 4 peers directly with local site 5; it should prefer the
        # local peer route over the provider-learned global route.
        graph = _chain_graph()
        graph.add_as(_node(5))
        graph.add_link(5, 4, Relationship.PEER)
        table = propagate(
            graph,
            [
                Origin(site="GLOB", asn=1),
                Origin(site="LOC", asn=5, scope=Scope.LOCAL),
            ],
        )
        assert table.site_of(4) == "LOC"


def _matches_reference(graph, origins):
    """The kernel's table for *origins*, checked route for route and
    in install order against the scalar reference."""
    table = propagate(graph, origins)
    ref = bgp_reference.propagate(graph, origins)
    routes = table.routes()
    assert list(routes) == list(ref)
    assert routes == ref
    return table


def _forest(table):
    """The table's record forest: each record's AS and parent index."""
    arrays = table._arrays
    asns = arrays.compiled.asn_of[arrays.rec_row].tolist()
    return asns, arrays.rec_parent.tolist()


class TestOfferSequence:
    """Origin and local-site offers that only their order decides.

    The kernel makes these offers in one pass; the reference makes
    them one at a time.  Each case also pins the record forest: one
    record per accepted offer, plus one root record per local origin
    with an accepted neighbor, just before that neighbor's record.
    """

    @staticmethod
    def _shared_neighbor_graph():
        """1 -cust-> 3 <-peer- 2: AS 3 is 1's provider and 2's peer."""
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(_node(asn))
        graph.add_link(1, 3, Relationship.PROVIDER)
        graph.add_link(2, 3, Relationship.PEER)
        return graph

    def test_local_origin_records(self):
        table = _matches_reference(
            _chain_graph(), [Origin(site="L", asn=1, scope=Scope.LOCAL)]
        )
        # The host's record, its neighbors' root, then neighbor 2.
        assert _forest(table) == ([1, 1, 2], [-1, -1, 1])

    def test_local_origin_with_every_neighbor_blocked(self):
        origin = Origin(
            site="L", asn=1, scope=Scope.LOCAL,
            blocked_neighbors=frozenset({2}),
        )
        table = _matches_reference(_chain_graph(), [origin])
        assert table.reachable_asns() == {1}
        assert _forest(table) == ([1], [-1])  # no root without a neighbor

    def test_later_local_origin_wins_shared_neighbor(self):
        # B's peer route reaches 3 first; A's later customer route wins.
        table = _matches_reference(
            self._shared_neighbor_graph(),
            [
                Origin(site="B", asn=2, scope=Scope.LOCAL),
                Origin(site="A", asn=1, scope=Scope.LOCAL),
            ],
        )
        assert table.route(3).path == (1, 3)
        assert table.route(3).route_class is RouteClass.CUSTOMER
        assert _forest(table) == (
            [2, 2, 3, 1, 1, 3], [-1, -1, 1, -1, -1, 4]
        )

    def test_later_local_origin_loses_shared_neighbor(self):
        table = _matches_reference(
            self._shared_neighbor_graph(),
            [
                Origin(site="A", asn=1, scope=Scope.LOCAL),
                Origin(site="B", asn=2, scope=Scope.LOCAL),
            ],
        )
        assert table.site_of(3) == "A"
        assert table.site_of(2) == "B"
        # B's only neighbor offer lost, so B makes no root record.
        assert _forest(table) == ([1, 1, 3, 2], [-1, -1, 1, -1])

    @pytest.mark.parametrize("first", ["A", "B"])
    def test_local_host_is_another_local_origins_neighbor(self, first):
        # AS 2 hosts B and is A's provider; each host keeps its own
        # site whichever origin offers first, and B's peer 3 takes B.
        graph = _chain_graph()
        origins = [
            Origin(site="A", asn=1, scope=Scope.LOCAL),
            Origin(site="B", asn=2, scope=Scope.LOCAL),
        ]
        if first == "B":
            origins.reverse()
        table = _matches_reference(graph, origins)
        assert table.route(1).path == (1,)
        assert table.route(2).path == (2,)
        assert table.route(3).path == (2, 3)
        assert table.site_of(4) is None

    def test_repeated_local_origin_adds_no_records(self):
        origin = Origin(site="L", asn=1, scope=Scope.LOCAL)
        table = _matches_reference(_chain_graph(), [origin, origin])
        # Its offers only tie, and a tie never beats.
        assert _forest(table) == ([1, 1, 2], [-1, -1, 1])

    @staticmethod
    def _two_stub_graph():
        """1 -cust-> 3 and 2 -cust-> 4: two disjoint climbs."""
        graph = ASGraph()
        for asn in (1, 2, 3, 4):
            graph.add_as(_node(asn))
        graph.add_link(1, 3, Relationship.PROVIDER)
        graph.add_link(2, 4, Relationship.PROVIDER)
        return graph

    def test_repeated_global_origin_keeps_its_frontier_place(self):
        # The second offer at AS 1 ties and is not taken, so AS 1
        # climbs before AS 2 and AS 3 is installed before AS 4.
        origin = Origin(site="S", asn=1)
        table = _matches_reference(
            self._two_stub_graph(), [origin, Origin(site="T", asn=2), origin]
        )
        assert list(table.routes()) == [1, 2, 3, 4]

    def test_later_smaller_global_origin_supersedes(self):
        # S beats T at AS 1 after U's offer, so AS 1 climbs after AS 2.
        table = _matches_reference(
            self._two_stub_graph(),
            [
                Origin(site="T", asn=1),
                Origin(site="U", asn=2),
                Origin(site="S", asn=1),
            ],
        )
        assert table.site_of(3) == "S"
        assert list(table.routes()) == [1, 2, 4, 3]


class TestOriginWithBlocked:
    def test_unchanged_set_returns_the_origin_itself(self):
        origin = Origin(site="A", asn=1, blocked_neighbors=frozenset({2}))
        assert origin.with_blocked(frozenset({2})) is origin

    def test_changed_set_returns_a_new_origin(self):
        origin = Origin(
            site="A", asn=1, scope=Scope.LOCAL,
            location=Location(1.0, 2.0), preference_discount=0.25,
        )
        blocked = origin.with_blocked(frozenset({3}))
        assert blocked is not origin
        assert blocked.blocked_neighbors == frozenset({3})
        assert blocked.with_blocked(frozenset()) == origin


class TestRoutingTable:
    def test_catchments_partition_reachable_asns(self):
        graph = _chain_graph()
        table = propagate(graph, [Origin(site="X", asn=1)])
        catchments = table.catchments()
        total = set()
        for asns in catchments.values():
            assert not (total & asns)
            total |= asns
        assert total == table.reachable_asns()

    def test_changes_from_detects_gain_and_loss(self):
        graph = _chain_graph()
        full = propagate(graph, [Origin(site="X", asn=1)])
        empty = propagate(graph, [])
        assert len(empty) == 0
        assert full.changes_from(empty) == full.reachable_asns()
        assert empty.changes_from(full) == full.reachable_asns()
        assert full.changes_from(full) == set()

    def test_changes_from_covers_every_transition_kind(self):
        # Two announcement states exercising each delta changes_from
        # must catch: loss of reachability, gain, site change, a path
        # change behind an equal preference key, and identical routes
        # that must NOT count.
        graph = ASGraph()
        for asn in range(1, 9):
            graph.add_as(_node(asn))
        graph.add_link(1, 2, Relationship.PROVIDER)
        graph.add_link(1, 4, Relationship.PROVIDER)
        graph.add_link(2, 3, Relationship.PROVIDER)
        graph.add_link(4, 3, Relationship.PROVIDER)
        graph.add_link(2, 8, Relationship.PEER)
        graph.add_link(5, 3, Relationship.PROVIDER)
        graph.add_link(5, 6, Relationship.PROVIDER)
        graph.add_link(7, 6, Relationship.PROVIDER)
        previous = propagate(graph, [Origin(site="X", asn=1)])
        # X stops exporting to 2, and Y appears at 6.
        current = propagate(
            graph,
            [
                Origin(site="X", asn=1, blocked_neighbors=frozenset({2})),
                Origin(site="Y", asn=6),
            ],
        )
        # 3's path changes interior hop only: same class, length,
        # tie-break, site and origin.
        assert previous.route(3).path == (1, 2, 3)
        assert current.route(3).path == (1, 4, 3)
        assert current.route(3).preference_key() == (
            previous.route(3).preference_key()
        )
        assert previous.route(8) is not None and current.route(8) is None
        assert previous.route(7) is None and current.site_of(7) == "Y"
        assert (previous.site_of(5), current.site_of(5)) == ("X", "Y")
        assert current.route(4) == previous.route(4)
        expected = {2, 3, 5, 6, 7, 8}
        assert current.changes_from(previous) == expected
        assert previous.changes_from(current) == expected

    def test_sites_of_matches_site_of(self):
        graph = _chain_graph()
        table = propagate(graph, [Origin(site="X", asn=1)])
        site_index = {"X": 3}
        got = table.sites_of([1, 2, 3, 4, 99], site_index)
        assert got.tolist() == [3, 3, 3, 3, -1]



@pytest.mark.parametrize("impl", IMPLEMENTATIONS, ids=IMPL_IDS)
class TestChangesFromEdgeCases:
    """changes_from must agree on every transition kind, per backend.

    Kernel tables and the reference's packed tables must report the
    same deltas for reachability gained, reachability lost, and
    identical states; an all-withdrawn state is ``impl(graph, [])``.
    """

    def _tables(self, impl):
        graph = _chain_graph()
        graph.add_as(_node(5))
        graph.add_link(5, 3, Relationship.PROVIDER)
        full = impl(
            graph, [Origin(site="A", asn=1), Origin(site="B", asn=5)]
        )
        partial = impl(graph, [Origin(site="A", asn=1)])
        return graph, full, partial

    def test_gain_of_reachability(self, impl):
        graph, full, partial = self._tables(impl)
        empty = impl(graph, [])
        assert full.changes_from(empty) == full.reachable_asns()

    def test_loss_of_reachability(self, impl):
        graph, full, partial = self._tables(impl)
        empty = impl(graph, [])
        assert empty.changes_from(full) == full.reachable_asns()

    def test_site_and_path_shift_between_states(self, impl):
        graph, full, partial = self._tables(impl)
        delta = partial.changes_from(full)
        # Withdrawing B moves B's catchment; both directions agree.
        assert delta == full.changes_from(partial)
        assert 5 in delta  # B's origin AS changed its best route
        assert delta <= full.reachable_asns() | partial.reachable_asns()

    def test_identical_states_report_empty(self, impl):
        graph = _chain_graph()
        origins = [Origin(site="A", asn=1)]
        a = impl(graph, origins)
        b = impl(graph, origins)
        assert a.changes_from(b) == set()
        assert b.changes_from(a) == set()
        assert a.changes_from(a) == set()

    def test_empty_vs_empty(self, impl):
        graph = _chain_graph()
        empty_a = impl(graph, [])
        empty_b = impl(graph, [])
        assert empty_a.changes_from(empty_b) == set()

    def test_across_graph_growth(self, impl):
        # A routed graph is finished: it cannot grow under its tables.
        graph = _chain_graph()
        origins = [Origin(site="A", asn=1)]
        before = impl(graph, origins)
        with pytest.raises(ValueError, match="cannot add AS 5"):
            graph.add_as(_node(5))
        with pytest.raises(ValueError, match="cannot link AS 4 to AS 1"):
            graph.add_link(4, 1, Relationship.PEER)
        assert before.changes_from(impl(graph, origins)) == set()
        # The grown graph has to be built anew, and tables of two
        # graphs sit on two compiled views: diffing them is an error.
        grown = _chain_graph()
        grown.add_as(_node(5))
        grown.add_link(5, 3, Relationship.PROVIDER)
        after = impl(grown, origins)
        with pytest.raises(ValueError, match="same compiled graph"):
            after.changes_from(before)
        with pytest.raises(ValueError, match="same compiled graph"):
            before.changes_from(after)
        assert after.changes_from(impl(grown, origins)) == set()


def _valley_free(graph, path):
    """Check a path is valley-free reading origin -> receiver."""
    # Classify each hop from the exporter's perspective: who is the
    # *receiver* for the exporter?  uphill = exporting to provider.
    kinds = []
    for exporter, receiver in zip(path, path[1:]):
        rel = graph.neighbors(exporter)[receiver]
        kinds.append(rel)
    # Valid: PROVIDER* (uphill), then at most one PEER, then CUSTOMER*.
    phase = 0  # 0 uphill, 1 after-peer, 2 downhill
    for rel in kinds:
        if rel is Relationship.PROVIDER:
            if phase != 0:
                return False
        elif rel is Relationship.PEER:
            if phase != 0:
                return False
            phase = 1
        else:  # CUSTOMER: downhill
            phase = 2
    return True


@st.composite
def random_graph_and_origins(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    graph = ASGraph()
    for asn in range(1, n + 1):
        graph.add_as(
            _node(
                asn,
                lat=draw(st.floats(min_value=-60, max_value=60)),
                lon=draw(st.floats(min_value=-170, max_value=170)),
            )
        )
    # Random relationships; orient provider edges from lower to higher
    # ASN to guarantee the customer-provider hierarchy is acyclic.
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            kind = draw(
                st.sampled_from(["none", "none", "cust", "peer"])
            )
            if kind == "cust":
                graph.add_link(a, b, Relationship.PROVIDER)
            elif kind == "peer":
                graph.add_link(a, b, Relationship.PEER)
    n_origins = draw(st.integers(min_value=1, max_value=3))
    origin_asns = draw(
        st.lists(
            st.integers(min_value=1, max_value=n),
            min_size=n_origins,
            max_size=n_origins,
            unique=True,
        )
    )
    origins = [
        Origin(
            site=f"S{asn}",
            asn=asn,
            location=graph.node(asn).location,
        )
        for asn in origin_asns
    ]
    return graph, origins


class TestValleyFreeProperty:
    @settings(max_examples=120, deadline=None)
    @given(data=random_graph_and_origins())
    def test_all_best_paths_valley_free_and_loop_free(self, data):
        graph, origins = data
        table = propagate(graph, origins)
        for asn in graph.asns:
            route = table.route(asn)
            if route is None:
                continue
            assert route.path[-1] == asn
            assert len(set(route.path)) == len(route.path), "loop"
            assert _valley_free(graph, route.path), route.path

    @settings(max_examples=60, deadline=None)
    @given(data=random_graph_and_origins())
    def test_origins_always_reach_themselves(self, data):
        graph, origins = data
        table = propagate(graph, origins)
        for origin in origins:
            assert table.site_of(origin.asn) == origin.site

    @settings(max_examples=60, deadline=None)
    @given(data=random_graph_and_origins())
    def test_deterministic(self, data):
        graph, origins = data
        a = propagate(graph, origins)
        b = propagate(graph, origins)
        assert a.changes_from(b) == set()
