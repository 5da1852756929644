"""``AnycastPrefix.routing()`` equals the scalar reference after every
edit, and ``LetterDeployment.act`` records exactly the changes it makes.

``routing()`` serves an announcement state from the per-prefix LRU
or from a fresh :func:`propagate`; both must hand back the routes
:func:`repro.netsim.bgp_reference.propagate` computes over the
announced origins in site-sorted order -- same routes, same iteration
order, same catchments.  Hypothesis draws the topology, an origin pool
with unique sites, a set of sites that start withdrawn and a chain of
``set_announced`` / ``set_blocked`` edits.  The chain runs twice:
behind a one-entry LRU (every revisit is an eviction and a recompute)
and behind a roomy LRU (every revisit is a hit).  Each edit must
report exactly the ASes whose reference route changed between the
two states, and ``None`` for a no-op.

``TestActChain`` drives random withdraw / announce / partial / restore
chains with random causes through ``act`` on H- and K-Root
deployments: one record per change, none for a no-op, each naming the
ASes whose route differs between the tables before and after.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import bgp_reference
from repro.netsim.anycast import AnycastPrefix
from repro.netsim.asgraph import ASGraph, AsNode, Relationship
from repro.netsim.bgp import Origin, Route, Scope
from repro.netsim.topology import TopologyConfig, build_topology
from repro.rootdns.deployment import (
    ActionKind,
    RoutingAction,
    build_deployments,
)
from repro.rootdns.letters import LETTERS_SPEC
from repro.util import Location

from .test_bgp_kernel import assert_tables_identical, reference_changes


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


def reference_routes(
    graph: ASGraph, prefix: AnycastPrefix
) -> dict[int, Route]:
    """The scalar reference over *prefix*'s announced origins."""
    origins = [
        prefix.origin(site).with_blocked(prefix.blocked_neighbors(site))
        for site in sorted(prefix.announced_sites())
    ]
    return bgp_reference.propagate(graph, origins)


def run_chain(graph, prefix, chain):
    previous = reference_routes(graph, prefix)
    assert_tables_identical(prefix.routing(), previous)
    for step, (kind, site, blocked) in enumerate(chain, start=1):
        if kind == "block":
            no_op = prefix.blocked_neighbors(site) == blocked
            reported = prefix.set_blocked(site, blocked)
        else:
            up = kind == "announce"
            no_op = prefix.is_announced(site) == up
            reported = prefix.set_announced(site, up)
        expected = reference_routes(graph, prefix)
        assert_tables_identical(prefix.routing(), expected)
        if no_op:
            assert reported is None, step
        else:
            assert reported == reference_changes(previous, expected), step
        previous = expected


class TestEditChain:
    @settings(max_examples=100, deadline=None)
    @given(data=graph_and_origins(), edits=st.data())
    def test_routing_matches_reference(self, data, edits):
        graph, pool = data
        sites = sorted(o.site for o in pool)
        withdrawn = edits.draw(
            st.frozensets(st.sampled_from(sites)), label="start withdrawn"
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

        for cache_size in (1, 64):
            run_chain(
                graph,
                AnycastPrefix(
                    graph, pool, cache_size=cache_size, withdrawn=withdrawn
                ),
                chain,
            )


CAUSES = ("policy", "controller", "fault")


@pytest.fixture(scope="module")
def deployments():
    """H-Root (a standby site) and K-Root (partial-withdraw sites)."""
    topology = build_topology(
        TopologyConfig(n_stubs=40), np.random.default_rng(3)
    )
    return build_deployments(
        topology, letters={L: LETTERS_SPEC[L] for L in ("H", "K")}
    )


def _site_state(dep, site):
    return (
        dep.prefix.is_announced(site),
        dep.prefix.blocked_neighbors(site),
        dep.states[site].partial,
    )


class TestActChain:
    @settings(max_examples=60, deadline=None)
    @given(edits=st.data())
    def test_one_record_per_change(self, deployments, edits):
        letter = edits.draw(st.sampled_from(["H", "K"]), label="letter")
        dep = deployments[letter].snapshot()
        n_edits = edits.draw(
            st.integers(min_value=1, max_value=8), label="edit count"
        )
        for step in range(n_edits):
            site = edits.draw(st.sampled_from(dep.site_order), label="site")
            action = edits.draw(st.sampled_from(list(ActionKind)))
            cause = edits.draw(st.sampled_from(CAUSES), label="cause")
            state = _site_state(dep, site)
            before = dep.routing().routes()
            records = list(dep.actions)
            changed = dep.act(site, action, float(step), cause)
            after = dep.routing().routes()

            up, blocked, partial = _site_state(dep, site)
            providers = frozenset(
                dep.topology.graph.providers(dep.host_asns[site])
            )
            if action is ActionKind.WITHDRAW or action is ActionKind.ANNOUNCE:
                assert up == (action is ActionKind.ANNOUNCE)
            else:
                assert partial == (action is ActionKind.PARTIAL)
                assert blocked == (providers if partial else frozenset())
            assert changed == ((up, blocked) != state[:2])
            if changed:
                assert dep.actions == records + [
                    RoutingAction(
                        float(step), site, action, cause,
                        frozenset(reference_changes(before, after)),
                    )
                ]
            else:
                assert dep.actions == records
                assert after == before
        # The fixture's deployment never saw the chain.
        assert not deployments[letter].actions
