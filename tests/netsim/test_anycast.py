"""Tests for anycast announcement state and the changes edits report."""

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
        assert prefix.set_announced("A", False)
        assert prefix.catchment_of(5) == "B"
        assert prefix.announced_sites() == {"B"}

    def test_withdraw_idempotent(self, prefix):
        assert prefix.set_announced("A", False)
        assert prefix.set_announced("A", False) is None

    def test_reannounce_restores(self, prefix):
        before = prefix.catchment_of(5)
        prefix.set_announced("A", False)
        prefix.set_announced("A", True)
        assert prefix.catchment_of(5) == before

    def test_unknown_site_raises(self, prefix):
        with pytest.raises(KeyError):
            prefix.set_announced("Z", False)
        with pytest.raises(KeyError):
            prefix.set_blocked("Z", frozenset())
        with pytest.raises(KeyError):
            prefix.is_announced("Z")
        with pytest.raises(KeyError):
            prefix.origin("Z")

    def test_all_withdrawn_leaves_no_routes(self, prefix):
        prefix.set_announced("A", False)
        prefix.set_announced("B", False)
        assert prefix.catchment_of(5) is None
        assert len(prefix.routing()) == 0


class TestChangeLog:
    def test_change_log_records_affected_asns(self, prefix):
        # ASes 1, 3, 5 were in A's catchment and must change; the
        # change is what LetterDeployment.act records.
        changed = prefix.set_announced("A", False)
        assert isinstance(changed, frozenset)
        assert {1, 3, 5} <= changed
        assert prefix.set_announced("A", True) == changed


class TestStateKey:
    def test_recurring_state_has_an_equal_key(self, prefix):
        key = prefix.state_key()
        prefix.set_announced("A", False)
        assert prefix.state_key() != key
        prefix.set_announced("A", True)
        assert prefix.state_key() == key

    def test_blocked_sets_are_part_of_the_key(self, prefix):
        key = prefix.state_key()
        prefix.set_blocked("A", frozenset({3}))
        assert prefix.state_key() != key
        prefix.set_blocked("A", frozenset())
        assert prefix.state_key() == key

    def test_key_built_once_and_shared_with_the_cache(self, prefix):
        key = prefix.state_key()
        prefix.routing()
        assert prefix.state_key() is key
        assert next(iter(prefix._cache)) is key


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
        prefix.routing()                  # {A, B}
        prefix.set_announced("A", False)  # {B}
        prefix.set_announced("B", False)  # {}
        prefix.set_announced("A", True)   # {A}
        assert len(prefix._cache) <= 2

    def test_eviction_preserves_routing_outputs(self):
        # A tiny cache forces evictions while a large one never
        # evicts; the observable outputs (catchments, changed ASes)
        # must be identical -- only the table objects may differ.
        def drive(prefix):
            seen = []
            changes = []
            schedule = [
                ("A", False), ("B", False), ("A", True),
                ("B", True), ("A", False), ("A", True),
            ]
            for site, up in schedule:
                changes.append(prefix.set_announced(site, up))
                seen.append(prefix.routing().catchments())
            return seen, changes

        small = drive(self._make_prefix(cache_size=1))
        large = drive(self._make_prefix(cache_size=64))
        assert small == large

    def test_recomputed_state_gets_fresh_version(self):
        # An evicted state comes back as a new table object with the
        # same routes.
        prefix = self._make_prefix(cache_size=1)
        full = prefix.routing()
        key = prefix.state_key()
        prefix.set_announced("A", False)  # evicts {A, B}
        prefix.routing()
        prefix.set_announced("A", True)   # recompute {A, B}
        assert prefix.routing() is not full
        assert prefix.routing().routes() == full.routes()
        # ... but the same state key, which epoch numbering uses.
        assert prefix.state_key() == key

    def test_recency_keeps_hot_state(self):
        prefix = self._make_prefix(cache_size=2)
        prefix.routing()                  # {A, B} cached
        prefix.set_announced("A", False)  # {B} cached
        prefix.set_announced("A", True)   # {A, B} hit, refreshed
        full = prefix.routing()
        prefix.set_announced("B", False)  # {A} evicts {B}, not {A, B}
        prefix.set_announced("B", True)
        assert prefix.routing() is full

    def test_rejects_nonpositive_cache_size(self, prefix):
        with pytest.raises(ValueError):
            AnycastPrefix(
                prefix.graph, [Origin(site="A", asn=1)], cache_size=0
            )


class TestInitiallyWithdrawn:
    def _make_prefix(self, graph, withdrawn):
        return AnycastPrefix(
            graph,
            [Origin(site="A", asn=1), Origin(site="B", asn=2)],
            withdrawn=withdrawn,
        )

    def test_starts_withdrawn_without_a_log_record(self, prefix):
        standby = self._make_prefix(prefix.graph, frozenset({"A"}))
        assert standby.announced_sites() == {"B"}
        assert standby.catchment_of(5) == "B"
        # Withdrawn from the start: withdrawing again changes nothing.
        assert standby.set_announced("A", False) is None

    def test_rejects_unknown_sites(self, prefix):
        with pytest.raises(ValueError, match="Z"):
            self._make_prefix(prefix.graph, frozenset({"Z"}))


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
