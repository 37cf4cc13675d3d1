"""Canonical codes, isomorphism maps, class partitions, mirror pairings."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptrees import (
    FixBoth,
    FixSet,
    RandomSpParams,
    automorphisms,
    canonical_code,
    iso_map,
    mirror_pairing,
    parse_sp,
    partition_classes,
    random_sp,
    reversal_code,
    underlying_graph,
)
from sptrees.core import Leaf, inner_postorder, iter_leaves
from sptrees.generate import _plans, code_sort_key

from conftest import (
    deep_nest_codes,
    deep_nest_text,
    mirror_symmetric,
    reference_codes,
    relabeled_shuffled_copy,
    reversal_map,
    reverse_tree,
    series_maps,
    small_corpus,
    twin_nest_text,
)

TRIANGLE_TAIL = "S(P(e(s,m),S(e(s,a),e(a,m))),e(m,t))"


def test_leaf_code_is_e():
    assert canonical_code(parse_sp("e(s,t)")) == "E"
    assert reversal_code(parse_sp("e(s,t)")) == "E"


def test_diamond_paths_share_a_code(diamond):
    path1, path2 = diamond.children[1], diamond.children[2]
    assert canonical_code(path1) == canonical_code(path2) == "S(EE)"


def test_top_node_kind_distinguishes_codes():
    two_chain = parse_sp("S(e(s,a),e(a,t))")
    bundle = parse_sp("P(e(s,t),S(e(s,a),e(a,t)))")
    assert canonical_code(two_chain) != canonical_code(bundle)


def test_parallel_children_codes_are_sorted():
    a = parse_sp("P(e(s,t),S(e(s,a),e(a,t)))")
    b = parse_sp("P(S(e(s,a),e(a,t)),e(s,t))")
    assert canonical_code(a) == canonical_code(b)
    # token order S < P < E puts the series child first
    assert canonical_code(a) == "P(S(EE)E)"


def test_codes_of_a_deep_nest_do_not_recurse():
    # Depth 2000 is twice the default recursion limit: a root code read
    # through one cached property per level would overflow the stack.
    assert sys.getrecursionlimit() <= 2000
    tree = parse_sp(deep_nest_text(2000))
    assert (canonical_code(tree), reversal_code(tree)) == deep_nest_codes(2000)


def copies_text(k: int) -> str:
    """A P of k copies of S(e,P(e,S(e,e))), all of one shape."""
    return "P(" + ",".join(
        f"S(e(s,a{i}),P(e(a{i},t),S(e(a{i},b{i}),e(b{i},t))))" for i in range(k)
    ) + ")"


def _assert_plan_codes_are_the_reference(tree):
    """Every node's plan carries the codes that the string rule gives it,
    the plans by code are one per shape, and the program has one entry per
    inner node, children first, whose refs name its children: in order for
    a series node, and grouped by class, in class order, for a P node."""
    plans, codes = _plans(tree), reference_codes(tree)
    inner = inner_postorder(tree)
    slot = {id(node): i for i, node in enumerate(inner)}
    assert len(plans.program) == len(inner)
    for node, (plan, refs) in zip(inner, plans.program):
        assert (plan.code, plan.rev) == codes[id(node)]
        kids = [~kid.index if isinstance(kid, Leaf) else slot[id(kid)] for kid in node.children]
        if plan.kind == "series":
            assert list(refs) == kids
        else:
            assert sorted(refs) == sorted(kids)
            # Grouped by class: each ref's code, and storage order within a class.
            ref_codes = [plans.program[r][0].code if r >= 0 else "E" for r in refs]
            assert ref_codes == [cp.rep_plan.code for cp in plan.parts for _ in range(cp.size)]
            assert all(kids.index(a) < kids.index(b)
                       for a, b, x, y in zip(refs, refs[1:], ref_codes, ref_codes[1:]) if x == y)
    for leaf in iter_leaves(tree):
        plan = plans.by_code["E"]
        assert (plan.code, plan.rev) == codes[id(leaf)]
    assert set(plans.by_code) == {code for code, _ in codes.values()}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 5))
def test_plan_codes_equal_the_reference_on_random_draws(seed, depth):
    _assert_plan_codes_are_the_reference(
        random_sp(RandomSpParams(seed=seed, max_depth=depth, max_children=4))
    )


@pytest.mark.parametrize("seed", range(60))
def test_plan_codes_equal_the_reference_on_mirror_symmetric_draws(seed):
    _assert_plan_codes_are_the_reference(mirror_symmetric(seed))


def test_plan_codes_equal_the_reference_on_a_twin_nest():
    _assert_plan_codes_are_the_reference(parse_sp(twin_nest_text(2000)))


def test_plan_codes_equal_the_reference_on_a_p_of_copies():
    tree = parse_sp(copies_text(1000))
    _assert_plan_codes_are_the_reference(tree)
    assert canonical_code(tree) == "P(" + "S(EP(S(EE)E))" * 1000 + ")"
    assert reversal_code(tree) == "P(" + "S(P(S(EE)E)E)" * 1000 + ")"


def test_iso_map_and_partition_classes_on_a_twin_nest():
    """The two halves of a 2000-deep twin nest, twice the default recursion
    limit, are matched member pair by member pair off an explicit stack."""
    assert sys.getrecursionlimit() <= 2000
    tree = parse_sp(twin_nest_text(2000))
    a, b = tree.children
    mapping = iso_map(a, b)
    m = len(mapping)
    assert mapping == {i: m + i for i in range(m)}
    part = partition_classes(parse_sp(twin_nest_text(2000)))
    assert [(cls.code, cls.members) for cls in part.classes] == [(canonical_code(a), (0, 1))]
    assert part.classes[0].to_rep[1] == iso_map(b, a) == {m + i: i for i in range(m)}


def test_code_sort_key_orders_tokens():
    assert code_sort_key("S") < code_sort_key("P") < code_sort_key("E")
    assert code_sort_key("E") < code_sort_key("(") < code_sort_key(")")


def test_palindromic_chain_is_self_reverse():
    chain3 = parse_sp("S(e(s,a),e(a,b),e(b,t))")
    assert reversal_code(chain3) == canonical_code(chain3)


def test_asymmetric_chain_reversal_differs():
    tree = parse_sp(TRIANGLE_TAIL)
    assert reversal_code(tree) != canonical_code(tree)
    # the reversal code is the code of the explicitly reversed tree
    reversed_tree, _ = reverse_tree(tree)
    assert reversal_code(tree) == canonical_code(reversed_tree)


def test_no_terminal_exchange_for_asymmetric_chain():
    tree = parse_sp(TRIANGLE_TAIL)
    g = underlying_graph(tree)
    fix_both = automorphisms(g, FixBoth("s", "t"))
    fix_set = automorphisms(g, FixSet("s", "t"))
    assert len(fix_both) == len(fix_set)
    assert mirror_pairing(tree) is None


def test_iso_map_identity(diamond):
    mapping = iso_map(diamond, diamond)
    assert mapping == {i: i for i in range(5)}


def test_iso_map_between_diamond_paths(diamond):
    path1, path2 = diamond.children[1], diamond.children[2]
    assert iso_map(path1, path2) == {1: 3, 2: 4}


def test_iso_map_none_on_code_mismatch():
    assert iso_map(parse_sp("e(s,t)"), parse_sp("S(e(s,a),e(a,t))")) is None


def test_partition_diamond(diamond):
    part = partition_classes(diamond)
    assert [cls.size for cls in part.classes] == [1, 2]
    assert [cls.code for cls in part.classes] == ["E", "S(EE)"]
    edge_class, path_class = part.classes
    assert edge_class.members == (0,)
    assert path_class.members == (1, 2)
    assert path_class.to_rep[2] == {3: 1, 4: 2}


def test_partition_theta(theta):
    part = partition_classes(theta)
    assert [cls.size for cls in part.classes] == [1, 2]


def test_partition_all_distinct_codes_gives_singletons():
    tree = parse_sp(
        "P(e(s,t),S(e(s,a),e(a,t)),S(e(s,b),e(b,c),e(c,t)))"
    )
    part = partition_classes(tree)
    assert [cls.size for cls in part.classes] == [1, 1, 1]


def test_mirror_two_chain_pairs():
    tree = parse_sp("S(e(s,a),e(a,t))")
    pairing = mirror_pairing(tree)
    assert pairing is not None and pairing.kind == "series"
    assert series_maps(tree) == ({0: 1}, {1: 0})


def test_mirror_diamond_classes_self_pair(diamond):
    pairing = mirror_pairing(diamond)
    assert pairing is not None and pairing.kind == "parallel"
    assert [(a, b) for a, b in pairing.class_pairs] == [(0, 0), (1, 1)]
    g = underlying_graph(diamond)
    assert len(automorphisms(g, FixSet("2", "3"))) == 4


def test_reversal_map_realizes_reversal():
    chain3 = parse_sp("S(e(s,a),e(a,b),e(b,t))")
    assert reversal_map(chain3, chain3) == {0: 2, 1: 1, 2: 0}


@pytest.mark.parametrize("seed", range(30))
def test_code_equality_matches_oracle_isomorphism(seed):
    """Equal codes iff the oracle finds a terminal-fixing isomorphism.

    Positive cases come from relabeled copies (equal codes by
    construction), negative cases from independent random draws; the
    oracle searches vertex bijections directly on the labeled graphs.
    """
    a = small_corpus(1, max_vertices=8, start_seed=seed * 131)[0]
    b = small_corpus(1, max_vertices=8, start_seed=seed * 131 + 57)[0]
    assert (canonical_code(a) == canonical_code(b)) == _oracle_oriented_isomorphic(a, b)
    twin = relabeled_shuffled_copy(a, seed)
    assert canonical_code(twin) == canonical_code(a)
    assert _oracle_oriented_isomorphic(a, twin)


def _oracle_oriented_isomorphic(a, b) -> bool:
    ga, gb = underlying_graph(a), underlying_graph(b)
    if ga.n != gb.n or ga.m != gb.m:
        return False
    seed_map = {a.source: b.source, a.target: b.target}
    if len(set(seed_map.values())) != len(seed_map):
        return False
    edges_a = {frozenset(e) for e in ga.edges}
    edges_b = {frozenset(e) for e in gb.edges}
    verts_a = [v for v in ga.vertices if v not in seed_map]

    def extends(mapping, v, w) -> bool:
        for u, img in mapping.items():
            if (frozenset((u, v)) in edges_a) != (frozenset((img, w)) in edges_b):
                return False
        return True

    def recurse(i, mapping, used) -> bool:
        if i == len(verts_a):
            return True
        v = verts_a[i]
        for w in gb.vertices:
            if w in used or not extends(mapping, v, w):
                continue
            mapping[v] = w
            used.add(w)
            if recurse(i + 1, mapping, used):
                return True
            del mapping[v]
            used.discard(w)
        return False

    start = dict(seed_map)
    if not extends({a.source: b.source}, a.target, b.target):
        return False
    return recurse(0, start, set(seed_map.values()))


@pytest.mark.parametrize("seed", range(25))
def test_iso_map_on_relabeled_copies_is_verified(seed):
    tree = random_sp(RandomSpParams(seed=seed, max_depth=3))
    copy = relabeled_shuffled_copy(tree, seed + 1)
    mapping = iso_map(tree, copy)
    assert mapping is not None  # iso_map verifies edge preservation internally


@pytest.mark.parametrize("seed", range(30))
def test_mirror_pairing_iff_exchange_automorphism(seed):
    tree = small_corpus(1, max_vertices=9, start_seed=seed * 211)[0]
    g = underlying_graph(tree)
    n_or = len(automorphisms(g, FixBoth(tree.source, tree.target)))
    n_semi = len(automorphisms(g, FixSet(tree.source, tree.target)))
    assert (
        (mirror_pairing(tree) is not None)
        == (n_semi == 2 * n_or)
        == (canonical_code(tree) == reversal_code(tree))
    )
    assert n_semi in (n_or, 2 * n_or)


@pytest.mark.parametrize("seed", range(20))
def test_mirror_symmetric_instances_always_pair(seed):
    tree = mirror_symmetric(seed)
    assert mirror_pairing(tree) is not None
