"""Domain types, validation, normalization, and edge-set classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptrees import (
    Classification,
    EdgeSet,
    InvalidTreeError,
    RandomSpParams,
    classify_edge_set,
    normalize,
    random_sp,
    underlying_graph,
    validate,
)
from sptrees.core import Parallel, Series, edge, parallel, series


def test_leaf_self_loop_is_flagged():
    report = validate(edge("a", "a"))
    assert any("self-loop" in v.message for v in report)


def test_parallel_multi_edge_is_flagged():
    tree = parallel(edge("s", "t", 0), edge("s", "t", 1))
    report = validate(tree)
    assert any("multi-edge" in v.message for v in report)


def test_multi_edge_brought_together_by_flattening_is_flagged():
    # The inner P holds one bare edge and the outer P another; only the
    # flattened child list shows the two parallel edges.
    tree = parallel(
        parallel(edge("s", "t", 0), series(edge("s", "a", 1), edge("a", "t", 2))),
        edge("s", "t", 3),
    )
    assert any("multi-edge" in v.message for v in validate(tree))
    with pytest.raises(InvalidTreeError, match="multi-edge"):
        normalize(tree)


def test_diamond_expression_is_valid(diamond):
    assert validate(diamond) == []


def test_series_chain_mismatch_is_flagged():
    tree = series(edge("a", "b", 0), edge("c", "d", 1))
    report = validate(tree)
    assert any("chain mismatch" in v.message for v in report)


def test_interior_label_reuse_across_parallel_branches_is_flagged():
    tree = parallel(
        series(edge("s", "x", 0), edge("x", "t", 1)),
        series(edge("s", "x", 2), edge("x", "t", 3)),
    )
    report = validate(tree)
    assert any("share interior vertices" in v.message for v in report)


def test_normalize_flattens_series_under_series():
    tree = series(series(edge("a", "b"), edge("b", "c")), edge("c", "d"))
    flat = normalize(tree)
    assert isinstance(flat, Series)
    assert len(flat.children) == 3
    assert [lf.index for lf in flat.children] == [0, 1, 2]


def test_normalize_flattens_parallel_under_parallel():
    x = series(edge("s", "a"), edge("a", "t"))
    y = series(edge("s", "b"), edge("b", "t"))
    tree = parallel(parallel(edge("s", "t"), x), y)
    flat = normalize(tree)
    assert isinstance(flat, Parallel)
    assert len(flat.children) == 3


def test_normalize_is_idempotent(diamond):
    assert normalize(diamond) == diamond


def test_normalize_rejects_structural_violations():
    with pytest.raises(InvalidTreeError):
        normalize(series(edge("a", "b"), edge("c", "d")))


def test_underlying_graph_single_edge():
    g = underlying_graph(normalize(edge("s", "t")))
    assert g.vertices == ("s", "t")
    assert g.edges == (("s", "t"),)


def test_underlying_graph_diamond(diamond):
    g = underlying_graph(diamond)
    assert g.n == 4 and g.m == 5


def test_underlying_graph_theta(theta):
    g = underlying_graph(theta)
    assert g.n == 6 and g.m == 7


def test_classify_single_edge_cases():
    g = underlying_graph(normalize(edge("s", "t")))
    assert classify_edge_set(g, EdgeSet.of([0])) is Classification.SPANNING_TREE
    assert classify_edge_set(g, EdgeSet()) is Classification.NEAR_TREE


def test_classify_diamond_known_tree(diamond):
    g = underlying_graph(diamond)
    tree = EdgeSet.of(
        [g.index_of("1", "2"), g.index_of("1", "3"), g.index_of("3", "4")]
    )
    assert classify_edge_set(g, tree) is Classification.SPANNING_TREE


def test_classify_cyclic_and_oversized_sets(diamond):
    g = underlying_graph(diamond)
    cycle = EdgeSet.of(
        [g.index_of("1", "2"), g.index_of("1", "3"), g.index_of("2", "3")]
    )
    assert classify_edge_set(g, cycle) is Classification.OTHER
    assert classify_edge_set(g, EdgeSet.of(range(5))) is Classification.OTHER


def test_spanning_tree_minus_any_edge_is_near_tree(diamond):
    g = underlying_graph(diamond)
    tree = EdgeSet.of(
        [g.index_of("1", "2"), g.index_of("1", "3"), g.index_of("3", "4")]
    )
    for i in tree.indices():
        smaller = EdgeSet(tree.mask ^ (1 << i))
        assert classify_edge_set(g, smaller) is Classification.NEAR_TREE


def test_edge_set_basics():
    es = EdgeSet.of([0, 3, 5])
    assert es.cardinality == 3
    assert es.indices() == (0, 3, 5)
    assert es.contains(3) and not es.contains(1)
    assert es.within(6) and not es.within(5)
    assert es.union(EdgeSet.of([1])).indices() == (0, 1, 3, 5)
    assert es.mapped({0: 2, 3: 0, 5: 7}).indices() == (0, 2, 7)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(0, 4))
def test_random_trees_validate_and_normalize_is_stable(seed, depth):
    tree = random_sp(RandomSpParams(seed=seed, max_depth=depth))
    assert validate(tree) == []
    assert normalize(tree) == tree
    g = underlying_graph(tree)
    assert g.m <= 2 * g.n - 3 or g.n < 2


def test_underlying_graph_invariant_under_normalize():
    nested = series(series(edge("a", "b"), edge("b", "c")), edge("c", "d"))
    flat = normalize(nested)
    assert sorted(underlying_graph(flat).edges) == sorted(
        (("a", "b"), ("b", "c"), ("c", "d"))
    )


def test_oriented_wrapper_equality():
    from sptrees import OrientedSP, SemiorientedSP, parse_sp

    from conftest import reverse_tree

    a = parse_sp("P(e(s,t),S(e(s,a),e(a,t)))")
    b = parse_sp("P(S(e(s,a),e(a,t)),e(s,t))")
    # same graph, same ordered terminals, different tree shapes
    assert OrientedSP(a) == OrientedSP(b)
    assert hash(OrientedSP(a)) == hash(OrientedSP(b))
    reversed_a, _ = reverse_tree(a)
    assert OrientedSP(a) != OrientedSP(reversed_a)
    assert SemiorientedSP(a) == SemiorientedSP(reversed_a)


def test_validate_reports_paths():
    tree = parallel(
        edge("s", "t"),
        series(edge("s", "a"), edge("a", "a"), edge("a", "t")),
    )
    report = validate(tree)
    assert any(v.path.startswith("root[1]") for v in report)
