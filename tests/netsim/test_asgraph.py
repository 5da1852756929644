"""Tests for the AS graph structure."""

import pytest

from repro.netsim import ASGraph, AsNode, AsRole, Relationship
from repro.util import Location


def _node(asn, lat=0.0, lon=0.0, role=AsRole.STUB):
    return AsNode(asn=asn, location=Location(lat, lon), role=role)


@pytest.fixture
def triangle():
    graph = ASGraph()
    for asn in (1, 2, 3):
        graph.add_as(_node(asn))
    graph.add_link(1, 2, Relationship.PROVIDER)  # 2 provides to 1
    graph.add_link(2, 3, Relationship.PEER)
    return graph


class TestRelationship:
    def test_inverse_pairs(self):
        assert Relationship.CUSTOMER.inverse is Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse is Relationship.CUSTOMER
        assert Relationship.PEER.inverse is Relationship.PEER


class TestGraphConstruction:
    def test_add_duplicate_as_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_as(_node(1))

    def test_self_link_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_link(1, 1, Relationship.PEER)

    def test_link_to_missing_as_rejected(self, triangle):
        with pytest.raises(KeyError):
            triangle.add_link(1, 99, Relationship.PEER)

    def test_conflicting_relationship_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.add_link(1, 2, Relationship.PEER)

    def test_idempotent_same_relationship(self, triangle):
        triangle.add_link(1, 2, Relationship.PROVIDER)
        assert triangle.edge_count() == 2

    def test_negative_asn_rejected(self):
        with pytest.raises(ValueError):
            _node(0)


class TestQueries:
    def test_link_is_symmetric_with_inverse(self, triangle):
        assert triangle.neighbors(1)[2] is Relationship.PROVIDER
        assert triangle.neighbors(2)[1] is Relationship.CUSTOMER

    def test_role_queries(self, triangle):
        assert triangle.providers(1) == [2]
        assert triangle.customers(2) == [1]
        assert triangle.peers(2) == [3]
        assert triangle.peers(3) == [2]

    def test_contains_and_len(self, triangle):
        assert 1 in triangle
        assert 99 not in triangle
        assert len(triangle) == 3

    def test_missing_as_queries_raise(self, triangle):
        with pytest.raises(KeyError):
            triangle.neighbors(99)
        with pytest.raises(KeyError):
            triangle.node(99)
        with pytest.raises(KeyError):
            triangle.providers(99)

    def test_edge_count(self, triangle):
        assert triangle.edge_count() == 2


class TestCompiledGraph:
    def test_rows_follow_insertion_order(self, triangle):
        compiled = triangle.compiled()
        assert compiled.asn_of.tolist() == [1, 2, 3]
        assert compiled.row_of == {1: 0, 2: 1, 3: 2}
        assert compiled.n_nodes == 3

    def test_csr_matches_adjacency_order(self, triangle):
        compiled = triangle.compiled()

        def neighbors(indptr, indices, row):
            rows = indices[indptr[row]:indptr[row + 1]]
            return [int(compiled.asn_of[r]) for r in rows]

        for asn in triangle.asns:
            row = compiled.row_of[asn]
            assert neighbors(
                compiled.provider_indptr, compiled.provider_indices, row
            ) == triangle.providers(asn)
            assert neighbors(
                compiled.peer_indptr, compiled.peer_indices, row
            ) == triangle.peers(asn)
            assert neighbors(
                compiled.customer_indptr, compiled.customer_indices, row
            ) == triangle.customers(asn)

    def test_compiled_once(self, triangle):
        first = triangle.compiled()
        assert triangle.compiled() is first
        row_of, _, _ = triangle.coordinate_arrays()
        assert row_of is first.row_of
        assert not hasattr(first, "version")
        assert not hasattr(triangle, "version")

    def test_arrays_are_read_only(self, triangle):
        compiled = triangle.compiled()
        with pytest.raises(ValueError):
            compiled.asn_of[0] = 99
        with pytest.raises(ValueError):
            compiled.provider_indices[:] = 0

    def test_rows_of_vectorized_lookup(self, triangle):
        compiled = triangle.compiled()
        assert compiled.rows_of([3, 1, 99, 2]).tolist() == [2, 0, -1, 1]

    def test_coordinates_and_distance_rows_are_read_only(self, triangle):
        triangle.add_as(_node(4, lat=10.0))
        triangle.add_link(4, 2, Relationship.PROVIDER)
        spec = [(1, Location(0, 0), 0.5)]
        [row] = triangle.distance_rows(spec)
        assert triangle.distance_rows(spec)[0] is row
        assert row.shape == (4,)
        assert row[:3].tolist() == [0.0, 0.0, 0.0]
        assert row[3] > 0.0
        _, lats, lons = triangle.coordinate_arrays()
        assert triangle.coordinate_arrays()[1] is lats
        assert lats.tolist() == [0.0, 0.0, 0.0, 10.0]
        for array in (row, lats, lons):
            with pytest.raises(ValueError):
                array[0] = 1.0
        # The sweep layer's copy of the memo shares the rows.
        memo = triangle.distance_memo()
        assert memo == {1: row} and memo[1] is row
        memo.clear()
        assert triangle.distance_rows(spec)[0] is row


#: The reads that finish a graph, as calls on it.
_FIRST_READS = {
    "compiled": lambda graph: graph.compiled(),
    "coordinate_arrays": lambda graph: graph.coordinate_arrays(),
    "distance_rows": lambda graph: graph.distance_rows(
        [(1, Location(0, 0), 1.0)]
    ),
}


class TestBuildThenRead:
    @pytest.mark.parametrize("read", sorted(_FIRST_READS))
    def test_edits_refused_after_first_read(self, triangle, read):
        _FIRST_READS[read](triangle)
        before = (
            triangle.nodes(),
            {asn: triangle.neighbors(asn) for asn in triangle.asns},
        )
        with pytest.raises(ValueError, match="cannot add AS 4: .*finished"):
            triangle.add_as(_node(4))
        with pytest.raises(
            ValueError, match="cannot link AS 1 to AS 3: .*finished"
        ):
            triangle.add_link(1, 3, Relationship.PEER)
        # A link that already exists is refused too: nothing is edited.
        with pytest.raises(ValueError, match="AS 1 to AS 2"):
            triangle.add_link(1, 2, Relationship.PROVIDER)
        after = (
            triangle.nodes(),
            {asn: triangle.neighbors(asn) for asn in triangle.asns},
        )
        assert after == before
        assert triangle.compiled().n_nodes == 3

    def test_edits_allowed_until_the_first_read(self, triangle):
        triangle.neighbors(1)
        triangle.edge_count()
        triangle.validate()
        triangle.add_as(_node(4))
        triangle.add_link(4, 3, Relationship.PROVIDER)
        assert triangle.compiled().n_nodes == 4


class TestValidate:
    def test_valid_graph_passes(self, triangle):
        triangle.validate()

    def test_isolated_as_fails(self, triangle):
        triangle.add_as(_node(4))
        with pytest.raises(ValueError):
            triangle.validate()
