"""``AnycastPrefix.routing()`` equals the scalar reference after every edit.

``routing()`` serves an announcement state from the per-prefix LRU
or from a fresh :func:`propagate`; both must hand back the table
:func:`repro.netsim.bgp_reference.propagate` computes over the
announced origins in site-sorted order -- same routes, same iteration
order, same catchments.  Hypothesis draws the topology, an origin pool
with unique sites, an up-front withdrawal and a chain of withdraw /
announce / ``set_blocked`` edits.  The chain runs twice: behind a
one-entry LRU (every revisit is an eviction and a recompute) and
behind a roomy LRU (every revisit is a hit).  Each change-log record
must equal the reference ``changes_from`` between the two states.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import bgp_reference
from repro.netsim.anycast import AnycastPrefix
from repro.netsim.asgraph import ASGraph, AsNode, Relationship
from repro.netsim.bgp import Origin, RoutingTable, Scope
from repro.util import Location

from .test_bgp_kernel import assert_tables_identical


@st.composite
def graph_and_origins(draw):
    """A random AS graph plus a pool of origins with unique sites.

    Provider edges orient low ASN -> high ASN so the transit hierarchy
    is acyclic, matching the kernel property suite.
    """
    n = draw(st.integers(min_value=3, max_value=12))
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
    pool_size = draw(st.integers(min_value=2, max_value=min(5, n)))
    pool_asns = draw(
        st.lists(
            st.integers(min_value=1, max_value=n),
            min_size=pool_size,
            max_size=pool_size,
            unique=True,
        )
    )
    pool = []
    for asn in pool_asns:
        pool.append(
            Origin(
                site=f"S{asn}",
                asn=asn,
                scope=draw(st.sampled_from([Scope.GLOBAL, Scope.LOCAL])),
                location=draw(
                    st.sampled_from([None, graph.node(asn).location])
                ),
                preference_discount=draw(
                    st.sampled_from([0.0, 0.25, 0.5])
                ),
            )
        )
    return graph, pool


def reference_table(graph: ASGraph, prefix: AnycastPrefix) -> RoutingTable:
    """The scalar reference over *prefix*'s announced origins."""
    origins = [
        prefix.origin(site).with_blocked(prefix.blocked_neighbors(site))
        for site in sorted(prefix.announced_sites())
    ]
    return bgp_reference.propagate(graph, origins)


def run_chain(graph, prefix, withdrawn, chain):
    for site in sorted(withdrawn):
        prefix.withdraw(site, timestamp=0.0)
    previous = reference_table(graph, prefix)
    assert_tables_identical(prefix.routing(), previous)
    for step, (kind, site, blocked) in enumerate(chain, start=1):
        logged = len(prefix.change_log())
        if kind == "withdraw":
            prefix.withdraw(site, timestamp=float(step))
        elif kind == "announce":
            prefix.announce(site, timestamp=float(step))
        else:
            prefix.set_blocked(site, blocked, timestamp=float(step))
        expected = reference_table(graph, prefix)
        assert_tables_identical(prefix.routing(), expected)
        changed = expected.changes_from(previous)
        log = prefix.change_log()
        if changed:
            assert len(log) == logged + 1, step
            assert log[-1].timestamp == float(step)
            assert log[-1].changed_asns == frozenset(changed), step
        else:
            assert len(log) == logged, step
        previous = expected


class TestEditChain:
    @settings(max_examples=100, deadline=None)
    @given(data=graph_and_origins(), edits=st.data())
    def test_routing_matches_reference(self, data, edits):
        graph, pool = data
        sites = sorted(o.site for o in pool)
        withdrawn = edits.draw(
            st.sets(st.sampled_from(sites)), label="withdrawn up front"
        )
        n_edits = edits.draw(
            st.integers(min_value=1, max_value=6), label="edit count"
        )
        chain = []
        for _ in range(n_edits):
            kind = edits.draw(
                st.sampled_from(["withdraw", "announce", "block"]),
                label="edit kind",
            )
            origin = edits.draw(st.sampled_from(pool), label="edited site")
            blocked = frozenset()
            if kind == "block":
                neighbors = sorted(graph.neighbors(origin.asn))
                blocked = edits.draw(
                    st.frozensets(
                        st.sampled_from(neighbors or [origin.asn]),
                        max_size=2,
                    ),
                    label="blocked set",
                )
            chain.append((kind, origin.site, blocked))

        run_chain(
            graph, AnycastPrefix(graph, pool, cache_size=1), withdrawn, chain
        )
        run_chain(
            graph, AnycastPrefix(graph, pool, cache_size=64), withdrawn, chain
        )
