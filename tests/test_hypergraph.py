"""Unit tests for the Hypergraph data structure."""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleInstanceError, InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.mutable import GraphDelta, MutableHypergraph, apply_delta


class TestConstruction:
    def test_basic_construction(self):
        hg = Hypergraph(4, [(0, 1), (1, 2, 3)], weights=[3, 1, 2, 2])
        assert hg.num_vertices == 4
        assert hg.num_edges == 2
        assert hg.edges == ((0, 1), (1, 2, 3))
        assert hg.weights == (3, 1, 2, 2)

    def test_edges_are_sorted(self):
        hg = Hypergraph(4, [(3, 1, 0)])
        assert hg.edge(0) == (0, 1, 3)

    def test_default_weights_are_ones(self):
        hg = Hypergraph(3, [(0, 1)])
        assert hg.weights == (1, 1, 1)

    def test_empty_hypergraph(self):
        hg = Hypergraph(0, [])
        assert hg.num_vertices == 0
        assert hg.num_edges == 0
        assert hg.rank == 0
        assert hg.max_degree == 0

    def test_vertices_without_edges(self):
        hg = Hypergraph(5, [(0, 1)])
        assert hg.degree(4) == 0
        assert hg.incident_edges(4) == ()

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(-1, [])

    def test_empty_edge_rejected(self):
        with pytest.raises(InfeasibleInstanceError):
            Hypergraph(3, [()])

    def test_duplicate_vertex_in_edge_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(3, [(0, 0, 1)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(3, [(0, 3)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(3, [(-1, 0)])

    def test_non_integer_vertex_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(3, [(0.5, 1)])

    def test_boolean_vertex_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(3, [(True, 0)])

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(3, [(0, 1)], weights=[1, 2])

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(2, [(0, 1)], weights=[0, 1])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(2, [(0, 1)], weights=[-5, 1])

    def test_float_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(2, [(0, 1)], weights=[1.5, 1])

    def test_boolean_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph(2, [(0, 1)], weights=[True, 1])


def _construct(edge):
    return Hypergraph(3, [(0, 1), edge])


def _add_edge(edge):
    return MutableHypergraph(Hypergraph(3, [(0, 1)])).add_edge(edge)


def _apply_delta(edge):
    return apply_delta(
        Hypergraph(3, [(0, 1)]), GraphDelta(added_edges=(edge,))
    )


@pytest.mark.parametrize(
    "door", [_construct, _add_edge, _apply_delta],
    ids=["constructor", "add_edge", "apply_delta"],
)
@pytest.mark.parametrize(
    "edge, error",
    [
        ((0, "a"), InvalidInstanceError),
        ((2, None), InvalidInstanceError),
        ((1, 0.5), InvalidInstanceError),
        ((True, 1), InvalidInstanceError),
        ((), InfeasibleInstanceError),
        ((2, 0, 2), InvalidInstanceError),
        ((0, 3), InvalidInstanceError),
        ((-1, 0), InvalidInstanceError),
    ],
    ids=[
        "str-vertex", "none-vertex", "float-vertex", "bool-vertex",
        "empty", "duplicate", "above-range", "below-range",
    ],
)
def test_every_edge_door_raises_the_same_typed_error(door, edge, error):
    """The constructor, ``MutableHypergraph.add_edge`` and
    ``apply_delta`` share one edge check: the same bad edge raises the
    same exception class at each, never a raw ``TypeError``."""
    with pytest.raises(InvalidInstanceError) as caught:
        door(edge)
    assert type(caught.value) is error


class TestParameters:
    def test_rank_is_max_edge_size(self):
        hg = Hypergraph(5, [(0,), (1, 2), (2, 3, 4)])
        assert hg.rank == 3

    def test_max_degree(self):
        hg = Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert hg.max_degree == 3
        assert hg.degree(0) == 3
        assert hg.degree(3) == 1

    def test_local_max_degree(self):
        hg = Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert hg.local_max_degree(0) == 3  # contains vertex 0
        assert hg.local_max_degree(3) == 2  # vertices 1, 2 have degree 2

    def test_max_weight_ratio(self):
        hg = Hypergraph(3, [(0, 1)], weights=[2, 7, 3])
        assert hg.max_weight_ratio == 4  # ceil(7/2)

    def test_max_weight_ratio_empty(self):
        assert Hypergraph(0, []).max_weight_ratio == 1

    def test_incidence_lists(self):
        hg = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
        assert hg.incident_edges(1) == (0, 1)


class TestCoverQueries:
    def test_is_cover_positive(self):
        hg = Hypergraph(4, [(0, 1), (1, 2, 3)])
        assert hg.is_cover({1})

    def test_is_cover_negative(self):
        hg = Hypergraph(4, [(0, 1), (2, 3)])
        assert not hg.is_cover({0})

    def test_empty_cover_of_edgeless(self):
        assert Hypergraph(3, []).is_cover(set())

    def test_uncovered_edges(self):
        hg = Hypergraph(4, [(0, 1), (2, 3), (1, 2)])
        assert hg.uncovered_edges({0, 2}) == []
        assert hg.uncovered_edges({0}) == [1, 2]
        assert hg.uncovered_edges(set()) == [0, 1, 2]

    def test_cover_weight_counts_each_vertex_once(self):
        hg = Hypergraph(3, [(0, 1)], weights=[5, 7, 11])
        assert hg.cover_weight([0, 0, 1]) == 12


class TestDunderAndTransforms:
    def test_equality_and_hash(self):
        a = Hypergraph(3, [(0, 1)], weights=[1, 2, 3])
        b = Hypergraph(3, [(1, 0)], weights=[1, 2, 3])
        c = Hypergraph(3, [(0, 2)], weights=[1, 2, 3])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a hypergraph"

    def test_repr_mentions_parameters(self):
        hg = Hypergraph(4, [(0, 1, 2)])
        text = repr(hg)
        assert "n=4" in text and "f=3" in text

    def test_reweighted(self):
        hg = Hypergraph(2, [(0, 1)], weights=[1, 1])
        hg2 = hg.reweighted([5, 6])
        assert hg2.weights == (5, 6)
        assert hg.weights == (1, 1)
        assert hg2.edges == hg.edges

    def test_without_isolated_vertices(self):
        hg = Hypergraph(5, [(1, 3)], weights=[9, 2, 9, 4, 9])
        compact, mapping = hg.without_isolated_vertices()
        assert compact.num_vertices == 2
        assert mapping == [1, 3]
        assert compact.edge(0) == (0, 1)
        assert compact.weights == (2, 4)

    def test_without_isolated_vertices_noop(self):
        hg = Hypergraph(2, [(0, 1)])
        compact, mapping = hg.without_isolated_vertices()
        assert compact == hg
        assert mapping == [0, 1]
