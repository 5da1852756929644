"""Tests for anycast announcement state and change logging."""

import pytest

from repro.netsim import (
    ASGraph,
    AnycastPrefix,
    AsNode,
    Origin,
    Relationship,
)
from repro.util import Location


def _node(asn):
    return AsNode(asn=asn, location=Location(0, 0))


@pytest.fixture
def prefix():
    graph = ASGraph()
    for asn in (1, 2, 3, 4, 5):
        graph.add_as(_node(asn))
    graph.add_link(1, 3, Relationship.PROVIDER)
    graph.add_link(2, 4, Relationship.PROVIDER)
    graph.add_link(3, 4, Relationship.PEER)
    graph.add_link(5, 3, Relationship.PROVIDER)
    return AnycastPrefix(
        graph, [Origin(site="A", asn=1), Origin(site="B", asn=2)]
    )


class TestState:
    def test_initially_all_announced(self, prefix):
        assert prefix.announced_sites() == {"A", "B"}
        assert prefix.is_announced("A")

    def test_withdraw_changes_catchment(self, prefix):
        assert prefix.catchment_of(5) == "A"
        assert prefix.withdraw("A", timestamp=100.0)
        assert prefix.catchment_of(5) == "B"
        assert prefix.announced_sites() == {"B"}

    def test_withdraw_idempotent(self, prefix):
        assert prefix.withdraw("A", timestamp=100.0)
        assert not prefix.withdraw("A", timestamp=101.0)
        assert len(prefix.change_log()) == 1

    def test_reannounce_restores(self, prefix):
        before = prefix.catchment_of(5)
        prefix.withdraw("A", timestamp=100.0)
        prefix.announce("A", timestamp=200.0)
        assert prefix.catchment_of(5) == before

    def test_unknown_site_raises(self, prefix):
        with pytest.raises(KeyError):
            prefix.withdraw("Z", timestamp=0.0)
        with pytest.raises(KeyError):
            prefix.is_announced("Z")
        with pytest.raises(KeyError):
            prefix.origin("Z")

    def test_all_withdrawn_leaves_no_routes(self, prefix):
        prefix.withdraw("A", timestamp=1.0)
        prefix.withdraw("B", timestamp=2.0)
        assert prefix.catchment_of(5) is None
        assert len(prefix.routing()) == 0


class TestChangeLog:
    def test_change_log_records_affected_asns(self, prefix):
        prefix.withdraw("A", timestamp=100.0)
        log = prefix.change_log()
        assert len(log) == 1
        assert log[0].timestamp == 100.0
        # ASes 1, 3, 5 were in A's catchment and must change.
        assert {1, 3, 5} <= log[0].changed_asns

    def test_log_ordering(self, prefix):
        prefix.withdraw("A", timestamp=100.0)
        prefix.announce("A", timestamp=200.0)
        times = [rec.timestamp for rec in prefix.change_log()]
        assert times == [100.0, 200.0]


class TestStateKey:
    def test_recurring_state_has_an_equal_key(self, prefix):
        key = prefix.state_key()
        prefix.withdraw("A", timestamp=1.0)
        assert prefix.state_key() != key
        prefix.announce("A", timestamp=2.0)
        assert prefix.state_key() == key

    def test_blocked_sets_are_part_of_the_key(self, prefix):
        key = prefix.state_key()
        prefix.set_blocked("A", frozenset({3}), timestamp=1.0)
        assert prefix.state_key() != key
        prefix.set_blocked("A", frozenset(), timestamp=2.0)
        assert prefix.state_key() == key

    def test_key_built_once_and_shared_with_the_cache(self, prefix):
        key = prefix.state_key()
        prefix.routing()
        assert prefix.state_key() is key
        assert next(iter(prefix._cache)) is key

    def test_reset_restores_the_initial_key(self, prefix):
        key = prefix.state_key()
        prefix.withdraw("B", timestamp=1.0)
        prefix.reset()
        assert prefix.state_key() == key


class TestCacheLru:
    def _make_prefix(self, cache_size):
        graph = ASGraph()
        for asn in (1, 2, 3, 4, 5):
            graph.add_as(_node(asn))
        graph.add_link(1, 3, Relationship.PROVIDER)
        graph.add_link(2, 4, Relationship.PROVIDER)
        graph.add_link(3, 4, Relationship.PEER)
        graph.add_link(5, 3, Relationship.PROVIDER)
        return AnycastPrefix(
            graph,
            [Origin(site="A", asn=1), Origin(site="B", asn=2)],
            cache_size=cache_size,
        )

    def test_cache_stays_bounded(self):
        prefix = self._make_prefix(cache_size=2)
        # Cycle through 4 distinct announcement states.
        prefix.routing()                      # {A, B}
        prefix.withdraw("A", timestamp=1.0)   # {B}
        prefix.withdraw("B", timestamp=2.0)   # {}
        prefix.announce("A", timestamp=3.0)   # {A}
        assert len(prefix._cache) <= 2

    def test_eviction_preserves_routing_outputs(self):
        # A tiny cache forces evictions while a large one never
        # evicts; the observable outputs (catchments, change log) must
        # be identical -- only version tokens may differ.
        def drive(prefix):
            seen = []
            schedule = [
                ("A", False), ("B", False), ("A", True),
                ("B", True), ("A", False), ("A", True),
            ]
            for t, (site, up) in enumerate(schedule):
                prefix.set_announced(site, up, timestamp=float(t))
                seen.append(prefix.routing().catchments())
            changes = [rec.changed_asns for rec in prefix.change_log()]
            return seen, changes

        small = drive(self._make_prefix(cache_size=1))
        large = drive(self._make_prefix(cache_size=64))
        assert small == large

    def test_recomputed_state_gets_fresh_version(self):
        prefix = self._make_prefix(cache_size=1)
        v_full = prefix.routing().version
        key = prefix.state_key()
        prefix.withdraw("A", timestamp=1.0)   # evicts {A, B}
        prefix.routing()
        prefix.announce("A", timestamp=2.0)   # recompute {A, B}
        assert prefix.routing().version != v_full
        # ... but the same state key, which epoch numbering uses.
        assert prefix.state_key() == key

    def test_recency_keeps_hot_state(self):
        prefix = self._make_prefix(cache_size=2)
        prefix.routing()                      # {A, B} cached
        prefix.withdraw("A", timestamp=1.0)   # {B} cached
        prefix.announce("A", timestamp=2.0)   # {A, B} hit, refreshed
        v_full = prefix.routing().version
        prefix.withdraw("B", timestamp=3.0)   # {A} evicts {B}, not {A, B}
        prefix.announce("B", timestamp=4.0)
        assert prefix.routing().version == v_full

    def test_rejects_nonpositive_cache_size(self, prefix):
        with pytest.raises(ValueError):
            AnycastPrefix(
                prefix.graph, [Origin(site="A", asn=1)], cache_size=0
            )


class TestValidation:
    def test_needs_origins(self, prefix):
        with pytest.raises(ValueError):
            AnycastPrefix(prefix.graph, [])

    def test_rejects_duplicate_sites(self, prefix):
        with pytest.raises(ValueError):
            AnycastPrefix(
                prefix.graph,
                [Origin(site="A", asn=1), Origin(site="A", asn=2)],
            )
