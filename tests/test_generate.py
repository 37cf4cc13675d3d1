"""Oriented enumeration, counting recurrences, streams, and orbit indexing."""

import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter
from functools import partial
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sptrees import (
    EdgeSet,
    FixBoth,
    ImageNotFound,
    OrientedSP,
    SemiorientedSP,
    all_near_trees,
    all_spanning_trees,
    automorphisms,
    count_oriented,
    count_total,
    iter_oriented_near,
    iter_oriented_spanning,
    kirchhoff_count,
    multiset_enumerate,
    near_tree_index,
    orbit_partition,
    oriented_both,
    oriented_spanning,
    count_semioriented,
    parse_sp,
    random_sp,
    RandomSpParams,
    serialize_sp,
    spanning_tree_index,
    underlying_graph,
    unrank,
)
from sptrees.cli import verify_instance
from sptrees.core import Leaf, Parallel, Series, mask_image
from sptrees import generate, semi
from sptrees.generate import (
    _assignments,
    _index,
    _placed,
    _plans,
    _streams,
    _wide,
    build_plan,
    multiset_coefficient,
    multiset_rank,
    multiset_unrank,
)
from sptrees.semi import _masks

from conftest import (
    DIAMOND_TEXT,
    Classification,
    chain,
    classify_edge_set,
    deep_nest_text,
    mirror_symmetric,
    orbit_exactly_once,
    reference_assignments,
    reference_index,
    reference_sums,
    small_corpus,
    twin_nest_text,
)


def test_multiset_enumerate_examples():
    assert multiset_enumerate(2, 2) == [(0, 0), (0, 1), (1, 1)]
    assert multiset_enumerate(3, 1) == [(0,), (1,), (2,)]
    assert multiset_enumerate(1, 3) == [(0, 0, 0)]


def test_multiset_enumerate_counts_and_rank():
    for m in range(1, 5):
        for k in range(0, 5):
            seqs = multiset_enumerate(m, k)
            assert len(seqs) == multiset_coefficient(m, k)
            assert seqs == sorted(seqs)
            for rank, seq in enumerate(seqs):
                assert multiset_rank(seq, m) == rank


def test_single_edge_lists():
    g = OrientedSP(parse_sp("e(s,t)"))
    spanning, near = oriented_both(g)
    assert spanning == [EdgeSet.of([0])]
    assert near == [EdgeSet(0)]


def test_two_chain_lists():
    g = OrientedSP(parse_sp("S(e(s,a),e(a,t))"))
    spanning, near = oriented_both(g)
    assert spanning == [EdgeSet.of([0, 1])]
    # the break moves through the children in order: drop child 0, then child 1
    assert near == [EdgeSet.of([1]), EdgeSet.of([0])]


def test_diamond_oriented_count_is_five(diamond):
    """Oracle adjudication: orbits of the 8 spanning trees under Aut_or."""
    g = underlying_graph(diamond)
    trees = all_spanning_trees(g)
    aut_or = automorphisms(g, FixBoth("2", "3"))
    report = orbit_partition(trees, aut_or, g)
    assert report.orbit_count == 5
    fast = oriented_spanning(OrientedSP(diamond))
    assert len(fast) == count_oriented(OrientedSP(diamond)).spanning == 5
    assert orbit_exactly_once(fast, report)


def test_diamond_oriented_near_count_is_three(diamond):
    """Oracle adjudication: near trees are terminal-separating 2-forests.

    The diamond has 4 such forests for terminals (2, 3); under the
    order-2 oriented group they fall into 3 orbits, matching the
    multiset recurrence C(1,1) * C(3,2) = 3.
    """
    g = underlying_graph(diamond)
    near = all_near_trees(g, "2", "3")
    assert len(near) == 4 == count_total(OrientedSP(diamond)).near
    aut_or = automorphisms(g, FixBoth("2", "3"))
    report = orbit_partition(near, aut_or, g)
    assert report.orbit_count == 3
    fast = oriented_both(OrientedSP(diamond))[1]
    assert len(fast) == count_oriented(OrientedSP(diamond)).near == 3
    assert orbit_exactly_once(fast, report)


def test_theta_oriented_counts(theta):
    """Theta(1,3,3): 9 spanning orbits; near adjudicated to 6 by the oracle."""
    o = OrientedSP(theta)
    g = underlying_graph(theta)
    assert count_total(o).spanning == kirchhoff_count(g) == 15
    counts = count_oriented(o)
    assert counts.spanning == 9
    assert counts.near == 6
    aut_or = automorphisms(g, FixBoth("s", "t"))
    spanning_report = orbit_partition(all_spanning_trees(g), aut_or, g)
    near_report = orbit_partition(all_near_trees(g, "s", "t"), aut_or, g)
    assert spanning_report.orbit_count == 9
    assert near_report.orbit_count == 6
    spanning, near = oriented_both(o)
    assert orbit_exactly_once(spanning, spanning_report)
    assert orbit_exactly_once(near, near_report)


def test_count_oriented_formula_terms(diamond):
    # classes (st, nt, size) = (1, 1, 1) and (1, 2, 2):
    # spanning = 1*C(0,0)*C(3,2) + 1*C(2,1)*C(1,1) = 3 + 2
    pair = count_oriented(OrientedSP(diamond))
    assert (pair.spanning, pair.near) == (5, 3)


def test_count_total_examples(diamond, theta):
    assert count_total(OrientedSP(diamond)).spanning == 8
    assert count_total(OrientedSP(theta)).spanning == 15
    for k in (1, 2, 5, 17, 50):
        pair = count_total(OrientedSP(chain(k)))
        assert (pair.spanning, pair.near) == (1, k)
        ori = count_oriented(OrientedSP(chain(k)))
        assert (ori.spanning, ori.near) == (1, k)


def test_chain_near_enumeration_matches_count():
    tree = chain(50)
    spanning, near = oriented_both(OrientedSP(tree))
    assert len(spanning) == 1 and len(near) == 50
    g = underlying_graph(tree)
    assert kirchhoff_count(g) == 1


def _balanced_instance():
    """Alternating S/P doubling tower with counts beyond 64-bit range."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"u{counter[0]}"

    def build(level: int, kind: str, src: str, tgt: str):
        if level == 0:
            mid = fresh()
            return Series((Leaf(src, mid), Leaf(mid, tgt)))
        if kind == "S":
            mid = fresh()
            return Series(
                (build(level - 1, "P", src, mid), build(level - 1, "P", mid, tgt))
            )
        return Parallel(
            (build(level - 1, "S", src, tgt), build(level - 1, "S", src, tgt))
        )

    from sptrees.core import normalize

    return normalize(build(6, "S", "s", "t"))


def test_balanced_instance_counts_exceed_64_bits_and_match_kirchhoff():
    tree = _balanced_instance()
    g = underlying_graph(tree)
    total = count_total(OrientedSP(tree))
    assert total.spanning > 2**64
    assert total.spanning == kirchhoff_count(g)
    oriented = count_oriented(OrientedSP(tree))
    assert 0 < oriented.spanning < total.spanning


def _compose(kind: str, parts: list[str]) -> str:
    return parts[0] if len(parts) == 1 else f"{kind}(" + ",".join(parts) + ")"


@pytest.mark.parametrize("k", [1, 2, 199, 200, 401])
def test_closed_form_counts_beyond_enumeration_range(k):
    triangles = parse_sp(
        _compose(
            "S",
            [f"P(e(v{i},v{i + 1}),S(e(v{i},w{i}),e(w{i},v{i + 1})))" for i in range(k)],
        )
    )
    assert count_total(OrientedSP(triangles)).spanning == 3**k
    assert count_oriented(OrientedSP(triangles)).spanning == 3**k
    assert count_semioriented(SemiorientedSP(triangles)) == (3**k + 3 ** (k // 2)) // 2

    chains = parse_sp(_compose("P", [f"S(e(s,a{i}),e(a{i},t))" for i in range(k)]))
    assert count_total(OrientedSP(chains)).spanning == k * 2 ** (k - 1)
    assert count_oriented(OrientedSP(chains)).spanning == k
    assert count_semioriented(SemiorientedSP(chains)) == (k + 1) // 2


@pytest.mark.parametrize("seed", range(40))
def test_enumeration_agrees_with_oracle_orbits(seed):
    tree = small_corpus(1, max_vertices=10, start_seed=seed * 307)[0]
    o = OrientedSP(tree)
    g = underlying_graph(tree)
    counts = count_oriented(o)
    spanning, near = oriented_both(o)
    assert len(spanning) == counts.spanning
    assert len(near) == counts.near
    for es in spanning:
        assert classify_edge_set(g, es) is Classification.SPANNING_TREE
    for es in near:
        assert classify_edge_set(g, es) is Classification.NEAR_TREE
    aut_or = automorphisms(g, FixBoth(tree.source, tree.target))
    assert orbit_exactly_once(
        spanning, orbit_partition(all_spanning_trees(g), aut_or, g)
    )
    assert orbit_exactly_once(
        near, orbit_partition(all_near_trees(g, tree.source, tree.target), aut_or, g)
    )
    assert count_total(o).spanning == kirchhoff_count(g)


@pytest.mark.parametrize("seed", range(30))
def test_stream_and_list_sequences_are_identical(seed):
    tree = small_corpus(1, max_vertices=12, start_seed=seed * 401)[0]
    o = OrientedSP(tree)
    spanning, near = oriented_both(o)
    assert list(iter_oriented_spanning(o)) == spanning
    assert list(iter_oriented_near(o)) == near


@pytest.mark.parametrize("seed", range(30))
def test_orbit_index_inverts_enumeration(seed):
    tree = small_corpus(1, max_vertices=10, start_seed=seed * 503)[0]
    o = OrientedSP(tree)
    spanning, near = oriented_both(o)
    for i, es in enumerate(spanning):
        assert spanning_tree_index(o, es) == i
    for i, es in enumerate(near):
        assert near_tree_index(o, es) == i


# Two isomorphic branches whose inner P nodes store their children in
# different orders, so the canonical leaf layout is not the input order.
MIXED_TEXT = "P(S(e(s,a),P(e(a,t),S(e(a,b),e(b,t)))),S(e(s,c),P(S(e(c,d),e(d,t)),e(c,t))))"


@pytest.mark.parametrize(
    "text",
    [DIAMOND_TEXT, MIXED_TEXT, "P(S(e(s,a),e(a,t)),e(s,t))"],
    ids=["diamond", "mixed", "edge-class-first"],
)
def test_orbit_index_locates_whole_orbit(text):
    """Any member of an orbit indexes to its representative's position."""
    tree = parse_sp(text)
    o = OrientedSP(tree)
    g = underlying_graph(tree)
    s, t = tree.source, tree.target
    aut_or = automorphisms(g, FixBoth(s, t))
    spanning, near = oriented_both(o)
    for trees, fast, index in (
        (all_spanning_trees(g), spanning, spanning_tree_index),
        (all_near_trees(g, s, t), near, near_tree_index),
    ):
        positions = {es: i for i, es in enumerate(fast)}
        for _, members in orbit_partition(trees, aut_or, g).orbits:
            expected = {positions[es] for es in members if es in positions}
            assert len(expected) == 1
            for member in members:
                assert index(o, member) in expected


def test_oriented_path_builds_no_leaf_map(monkeypatch):
    """Counting, enumerating and indexing oriented trees never call iso_map."""
    o = OrientedSP(parse_sp(MIXED_TEXT))

    def results():
        spanning, near = oriented_both(o)
        return (
            count_oriented(o),
            count_total(o),
            spanning,
            near,
            list(iter_oriented_spanning(o)),
            list(iter_oriented_near(o)),
            [spanning_tree_index(o, es) for es in spanning],
            [near_tree_index(o, es) for es in near],
        )

    expected = results()
    assert expected[-2:] == (list(range(len(expected[2]))), list(range(len(expected[3]))))

    def refuse(*_):
        raise AssertionError("iso_map called on the oriented path")

    monkeypatch.setattr("sptrees.canonical.iso_map", refuse)
    assert results() == expected


# Roots whose P nodes store their children against the class order.  The
# first two are reversal-symmetric, and the second's root class has two
# members apart; in the third, one P node keeps its first child first and
# swaps the other two.
MOVED_ROOTS = {
    "series": "S(P(e(s,a),S(e(s,x),e(x,a))),P(S(e(a,y),e(y,b)),e(a,b)),e(b,c),"
    "P(e(c,d),S(e(c,z),e(z,d))),P(S(e(d,w),e(w,t)),e(d,t)))",
    "parallel": "P(S(e(s,a),e(a,b),e(b,t)),e(s,t),S(e(s,c),P(e(c,t),S(e(c,d),e(d,t)))),"
    "S(e(s,f),e(f,g),e(g,t)),S(P(S(e(s,h),e(h,i)),e(s,i)),e(i,t)))",
    "split-run": "S(P(e(s,a),S(e(s,b),e(b,c),e(c,a))),"
    "P(e(a,d),S(e(a,f),e(f,g),e(g,d)),S(e(a,h),e(h,d))),e(d,t))",
}


@pytest.mark.parametrize("seed", [*range(24), *MOVED_ROOTS])
def test_streams_in_a_numbering_are_the_input_streams_permuted(seed):
    """Input leaf i at bit `numbering[i]`: the spanning, near and semioriented
    streams equal the input-numbered ones with each mask permuted bit by bit.
    On the `MOVED_ROOTS`, the index operations also invert the streams and
    the oracle check passes."""
    rng = random.Random(seed)
    if seed in MOVED_ROOTS:
        trees = [parse_sp(MOVED_ROOTS[seed])]
    else:
        draw = random_sp(RandomSpParams(seed=seed, max_depth=3 + seed % 2, max_children=3))
        if count_oriented(OrientedSP(draw)).spanning > 5000:
            draw = random_sp(RandomSpParams(seed=seed))
        trees = [draw, mirror_symmetric(seed, max_trees=500)]
    for tree in trees:
        m = underlying_graph(tree).m
        numbering = rng.sample(range(m), m)
        leaf_map = dict(enumerate(numbering))
        for near in (False, True):
            expected = [mask_image(x, leaf_map) for x in _streams(tree, near)[0]]
            placed = _streams(tree, near, numbering=numbering)[0]
            assert list(placed) == expected
        expected = [mask_image(x, leaf_map) for x in _masks(tree)]
        assert list(_masks(tree, numbering)) == expected
    if seed in MOVED_ROOTS:
        o = OrientedSP(tree)
        for stream, index in zip(oriented_both(o), (spanning_tree_index, near_tree_index)):
            assert [index(o, es) for es in stream] == list(range(len(stream)))
        ok, summary = verify_instance(tree)
        assert ok, summary


def test_orbit_index_rejects_garbage(diamond):
    o = OrientedSP(diamond)
    with pytest.raises(ImageNotFound):
        spanning_tree_index(o, EdgeSet.of([0, 1, 2]))  # contains a cycle
    with pytest.raises(ImageNotFound):
        near_tree_index(o, EdgeSet.of([0, 1]))  # does not separate terminals
    spanning, near = oriented_both(o)
    with pytest.raises(ImageNotFound):
        spanning_tree_index(o, EdgeSet(spanning[0].mask | 1 << 40))  # an edge outside the graph
    with pytest.raises(ImageNotFound):
        near_tree_index(o, EdgeSet(near[0].mask | 1 << 5))  # edge 5 of a 5-edge graph


def _rank_or_none(index, *args):
    try:
        return index(*args)
    except ImageNotFound:
        return None


@pytest.mark.parametrize(
    "tree",
    [small_corpus(1, max_vertices=10, start_seed=seed * 503)[0] for seed in range(30)]
    + [parse_sp(text) for text in (DIAMOND_TEXT, MIXED_TEXT, "P(S(e(s,a),e(a,t)),e(s,t))")],
)
def test_index_equals_the_recursive_reference(tree):
    """The one-loop `_index` ranks every spanning and near tree of each orbit
    as the recursive reference does, and rejects every edge set the
    reference rejects: seeded sets of both sizes and each tree asked for as
    the other kind."""
    plan, g = build_plan(tree), underlying_graph(tree)
    rng = random.Random(g.m)
    masks = [es.mask for es in all_spanning_trees(g) + all_near_trees(g, tree.source, tree.target)]
    for size in (g.n - 1, g.n - 2):
        masks += [EdgeSet.of(rng.sample(range(g.m), size)).mask for _ in range(100)]
    for mask in masks:
        for near in (False, True):
            expected = _rank_or_none(reference_index, tree, plan, mask, near)
            assert _rank_or_none(_index, _plans(tree), mask, near) == expected


def _kruskal(g) -> EdgeSet:
    """The first spanning tree in edge order, by union-find."""
    parent = {v: v for v in g.vertices}

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    chosen = []
    for i, (u, v) in enumerate(g.edges):
        a, b = root(u), root(v)
        if a != b:
            parent[a] = b
            chosen.append(i)
    return EdgeSet.of(chosen)


def _member_text(shape: int, u: str, v: str, tag: str) -> str:
    """A member from u to v: a chain of `shape` edges (r = shape near trees),
    or for shape 5 an edge in series with a triangle (r = 5)."""
    if shape == 5:
        return f"S(e({u},x{tag}),P(e(x{tag},{v}),S(e(x{tag},y{tag}),e(y{tag},{v}))))"
    ends = [u] + [f"a{tag}_{j}" for j in range(1, shape)] + [v]
    return "S(" + ",".join(f"e({a},{b})" for a, b in zip(ends, ends[1:])) + ")"


def _drawn_tree(draw, node, near: bool) -> int:
    """The mask of a near (or spanning) tree of `node`, drawn part by part: a
    series node's near tree breaks in one child, a P node's spanning tree
    spans through one child, and every other child takes the other kind."""
    if isinstance(node, Leaf):
        return 0 if near else 1 << node.index
    series, kids = isinstance(node, Series), node.children
    odd = draw(st.integers(0, len(kids) - 1)) if near == series else None
    return sum(_drawn_tree(draw, kid, (i == odd) == series) for i, kid in enumerate(kids))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_index_of_wide_classes_equals_the_recursive_reference(data):
    """Trees through a wide class (`_wide`: c > 8 members at r = 2, c > 6 at
    r = 3, c >= 2r from r = 4 on), whose digit is ranked from its count
    vector, get the recursive reference's rank from `spanning_tree_index`
    and `near_tree_index`, and each kind is rejected where the reference
    rejects it.  The class sits alone or beside an edge and another class,
    at the root or inside a series, so that its spanning member is
    sometimes in the class and sometimes not; the m <= 9 shape sweep
    reaches no wide class."""
    shape = data.draw(st.sampled_from([2, 3, 4, 5]), label="r")
    c = next(c for c in itertools.count(1) if _wide(shape, c)) + data.draw(st.integers(0, 2))
    members = [_member_text(shape, "s", "t", str(i)) for i in range(c)]
    if data.draw(st.booleans(), label="edge beside"):
        members.append("e(s,t)")
    others = data.draw(st.integers(0, 2), label="other members")
    members += [_member_text(7 - shape, "s", "t", f"o{i}") for i in range(others)]
    text = "P(" + ",".join(data.draw(st.permutations(members))) + ")"
    if data.draw(st.booleans(), label="in a series"):
        text = f"S(e(p,s),{text},e(t,q))"
    tree = parse_sp(text)
    plan, o = build_plan(tree), OrientedSP(tree)
    for near in (False, True):
        mask = _drawn_tree(data.draw, tree, near)
        for kind, index in ((False, spanning_tree_index), (True, near_tree_index)):
            expected = _rank_or_none(reference_index, tree, plan, mask, kind)
            assert (expected is None) == (kind != near)
            assert _rank_or_none(index, o, EdgeSet(mask)) == expected


@pytest.mark.parametrize("depth", [2000, 10_000])
def test_index_of_a_deep_nest_returns(depth):
    """`spanning_tree_index` ranks a tree of the alternating nest at depths
    past the recursion limit: it loops over the nodes and does not recurse."""
    tree = parse_sp(deep_nest_text(depth))
    o = OrientedSP(tree)
    rank = spanning_tree_index(o, _kruskal(underlying_graph(tree)))
    assert 0 <= rank < count_oriented(o).spanning


@pytest.mark.parametrize("near", [True, False])
@pytest.mark.parametrize("r", [1, 2, 3, 5])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_assignments_equal_the_member_sum_rule(r, near, data):
    """A class's near (or spanning) assignment masks equal those of summing
    each multiset's member masks, on both sides of the count-vector cut
    (`generate._wide`): one and two members, the most members below the
    cut and the fewest two above it, so that a spanning assignment's rest
    of c - 1 lies on each side too.  Each member's masks are distinct and
    lie on its own bits, as a P node's members' do, so that every
    assignment has its own mask."""
    width, spans = 2 * r + 2, data.draw(st.integers(1, 3))
    wide = next(c for c in itertools.count(1) if _wide(r, c))
    for c in (1, 2, wide - 1, wide, wide + 1):
        masks = st.lists(st.integers(0, 2**width - 1), min_size=r + spans, max_size=r + spans,
                         unique=True)
        trees = [[x << p * width for x in data.draw(masks)] for p in range(c)]

        def lists(member, rep, kind):
            return tuple(trees[member][: rep.nt] if kind else trees[member][rep.nt :])

        rep, members = SimpleNamespace(nt=r), tuple(range(c))
        got = _assignments(members, rep, near, lists)
        assert got == reference_assignments(members, rep, near, lists)


@pytest.mark.parametrize("wide", [True, False])
@pytest.mark.parametrize("text", [
    "P(" + ",".join(f"S(e(s,m{i}),e(m{i},t))" for i in range(6)) + ")",
    "P(" + ",".join(f"S(e(s,a{i}),e(a{i},b{i}),e(b{i},t))" for i in range(4)) + ")",
    "P(S(e(s,a),e(a,b),e(b,t)),e(s,t),S(e(s,c),P(e(c,t),S(e(c,d),e(d,t)))),"
    "S(e(s,f),e(f,g),e(g,t)),S(P(S(e(s,h),e(h,i)),e(s,i)),e(i,t)))",
] + [serialize_sp(mirror_symmetric(seed, max_trees=300)) for seed in range(4)])
def test_either_multiset_path_passes_the_oracle(text, wide, monkeypatch):
    """With every class of two or more members read as count vectors, or
    none, the oriented lists and the semioriented filter pass the oracle.
    A class wide enough for the count-vector path by default is soon out of
    the oracle's reach (it lists Aut, of order c!), so the path is checked
    end to end here, on small classes."""
    for module in (generate, semi):
        monkeypatch.setattr(module, "_wide", lambda r, c: wide)
    ok, summary = verify_instance(parse_sp(text), limit=13)
    assert ok, summary


@pytest.mark.parametrize("c", [40, 80])
def test_wide_classes_sum_r_minus_1_terms_per_multiset(c, monkeypatch):
    """A P of c three-edge chains (r = 3 near trees each) builds its
    assignments from count vectors: every multiset's mask is one `sum` of
    r - 1 = 2 terms, never one of c, for the near assignments and for the
    c - 1 members beside a spanning tree.  Where the spanning product folds
    (`generate._split`, as it does at the default constants) each spanning
    assignment is then one add, with no `sum`; with the fold cut out of
    reach it is a `sum` of 2 terms, the spanning tree and the multiset."""
    text = "P(" + ",".join(f"S(e(s,a{i}),e(a{i},b{i}),e(b{i},t))" for i in range(c)) + ")"
    tree = parse_sp(text)
    [part], (_, members) = build_plan(tree).parts, _plans(tree).program[-1]
    rep, lists = part.rep_plan, partial(_placed, {}, None, _plans(tree).program)
    for x in members:  # the members' own lists first: their sums are not counted
        lists(x, rep, True), lists(x, rep, False)
    rest = multiset_coefficient(rep.nt, c - 1)
    terms, builtin_sum = [], sum

    def counted(items, start=0):
        items = list(items)
        terms.append(len(items))
        return builtin_sum(items, start)

    for folds in (True, False):
        if not folds:
            monkeypatch.setattr(generate, "_FOLD", 10**9)
        assert bool(generate._split([rep.st, rest])) == folds
        monkeypatch.setattr(generate, "sum", counted, raising=False)
        terms.clear()
        near = _assignments(members, rep, True, lists)
        assert Counter(terms) == {rep.nt - 1: part.nt} and len(near) == part.nt
        terms.clear()
        spanning = _assignments(members, rep, False, lists)
        spans = 0 if folds else rep.st * rest
        assert Counter(terms) == {rep.nt - 1: rest + spans} and len(spanning) == part.st
        monkeypatch.undo()
        assert (near, spanning) == tuple(
            reference_assignments(members, rep, kind, lists) for kind in (True, False)
        )


# List lengths for the fold: empty and one-entry lists, lengths on either
# side of the default _TAIL, and a long list.
_LENGTHS = (0, 1, 1, 2, 3, 4, 7, 8, 31, 32, 33, 300)
_CONSTANTS = ((generate._TAIL, generate._FOLD), (1, 0), (2, 0), (3, 2), (4, 0), (8, 30))


def _lists(seed: int, *lengths: int) -> list[tuple[int, ...]]:
    """Lists of the given lengths, of seeded masks on disjoint 16-bit fields."""
    rng = random.Random(seed)
    return [tuple(rng.getrandbits(16) << 16 * i for _ in range(n)) for i, n in enumerate(lengths)]


@st.composite
def _fold_blocks(draw):
    """One to four blocks of one to six lists, each block's product at most
    10 000 entries."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        lengths, product = [], 1
        for _ in range(draw(st.integers(1, 6))):
            n = draw(st.sampled_from([n for n in _LENGTHS if product * n <= 10_000]))
            lengths.append(n)
            product *= n
        blocks.append(_lists(draw(st.integers(0, 2**32)), *lengths))
    return blocks


@given(blocks=_fold_blocks(), constants=st.sampled_from(_CONSTANTS))
@example(blocks=[_lists(1, 300, 1)], constants=_CONSTANTS[0])
@example(blocks=[_lists(2, 8, 300, 1)], constants=_CONSTANTS[0])
@example(blocks=[_lists(3, 33, 3, 31), _lists(4, 12, 3, 11), _lists(5, 9, 32)], constants=_CONSTANTS[0])
@example(blocks=[_lists(6, 300, 0, 33), _lists(7, 1), _lists(8, 0)], constants=_CONSTANTS[1])
@settings(max_examples=300, deadline=None)
def test_sums_equal_the_reference(blocks, constants):
    """`_sums`, folded or not, streams the masks `reference_sums` sums one
    entry at a time, in the same order, at the default constants and
    patched small, so that short tails, copied tails and every block of
    two or more lists fold.  Masks on disjoint bit fields join by `or`;
    with `operator.add`, as `semi` passes for its index sums, so do ints
    whose bits overlap."""
    size = sum(math.prod(map(len, b)) for b in blocks)
    overlapping = [[tuple(x % 1009 for x in xs) for xs in b] for b in blocks]
    with mock.patch.multiple(generate, _TAIL=constants[0], _FOLD=constants[1]):
        assert list(generate._sums(blocks, size)) == list(reference_sums(blocks))
        assert list(generate._sums(overlapping, size, operator.add)) == list(reference_sums(overlapping))


def test_no_fold_copies_a_long_list():
    """A tail is the shortest run of trailing lists whose product reaches
    _TAIL.  The last list alone is read in place; a tail of several lists
    is a copy, so a long list beside one-entry lists never joins one."""
    tail = generate._TAIL
    long = tail * tail + 1
    assert generate._split([1, long]) == 1
    assert generate._split([long, 1]) == 0
    assert generate._split([64, long, 1]) == 0
    assert generate._split([1, 1, long, 1]) == 0
    j = generate._split([3] * 8)
    assert 3 ** (7 - j) < tail <= 3 ** (8 - j)


def test_folded_masks_take_no_more_memory_than_summed_ones():
    """The 100 000 masks of a folded block of 48-bit masks (two 30-bit
    digits each) hold no more memory, traced, than the same masks summed
    one entry at a time: the fold joins by `or`, which allocates each
    int at its size, where an add would allocate a spare digit each."""
    blocks = [_lists(9, 40, 50, 50)]
    assert generate._split([40, 50, 50])

    def traced(masks) -> int:
        tracemalloc.start()
        try:
            masks = tuple(masks)  # held while the traced memory is read
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert traced(generate._sums(blocks, 100_000)) <= traced(reference_sums(blocks)) + 50_000


def test_a_folded_stream_sums_once_per_prefix_not_once_per_tree(monkeypatch):
    """ROADMAP item 10's stream guard.  Once its part lists are built,
    streaming the 3^8 = 6561 spanning trees of a series of eight triangles
    calls the module's `sum` once per prefix of its folded root block, at
    most trees / _TAIL times, and not once a tree: each tree is one join
    of a prefix and a tail entry."""
    text = "S(" + ",".join(f"P(e(v{i},v{i + 1}),S(e(v{i},a{i}),e(a{i},v{i + 1})))" for i in range(8)) + ")"
    [stream] = _streams(parse_sp(text), False)  # builds the triangles' lists
    calls, builtin_sum = [], sum

    def counted(items, start=0):
        calls.append(1)
        return builtin_sum(items, start)

    monkeypatch.setattr(generate, "sum", counted, raising=False)
    trees = len(list(stream))
    monkeypatch.undo()
    assert trees == 3**8
    assert 0 < len(calls) <= trees // generate._TAIL


def test_rank_of_a_wide_class_evaluates_r_binomials(monkeypatch):
    """One `spanning_tree_index` on a P of 600 two-edge chains (r = 2) ranks
    its class from the count vector: at most r binomials (r - 1 terms and
    the spanning member's place), not the 2c of ranking the sorted multiset;
    a near tree's rank needs at most r - 1."""
    c, r = 600, 2
    o = OrientedSP(parse_sp("P(" + ",".join(f"S(e(s,m{i}),e(m{i},t))" for i in range(c)) + ")"))
    counts = count_oriented(o)  # builds the plans, whose class counts are binomials too
    # Chain i holds edges 2i and 2i + 1; each near member keeps one of them.
    near = EdgeSet.of([2 * i + i % 3 % 2 for i in range(c)])
    spanning = EdgeSet(near.mask | 0b11)
    calls, binomial = [], generate.multiset_coefficient

    def counted(m, k):
        calls.append((m, k))
        return binomial(m, k)

    monkeypatch.setattr(generate, "multiset_coefficient", counted)
    assert 0 <= spanning_tree_index(o, spanning) < counts.spanning and len(calls) <= r
    calls.clear()
    assert 0 <= near_tree_index(o, near) < counts.near and len(calls) <= r - 1


def test_the_index_walks_no_node_once_the_plans_are_built(monkeypatch):
    """With the plans built, `spanning_tree_index` and `near_tree_index` rank
    a tree from the plan pass's program alone: neither walks the tree's
    nodes again (`inner_postorder`, counted over the module binding).  The
    tree has series nodes, leaf children and a class of several members."""
    o = OrientedSP(parse_sp(
        "S(P(e(s,x),S(e(s,a),e(a,x)),S(e(s,b),e(b,x))),P(e(x,t),S(e(x,c),e(c,d),e(d,t))))"
    ))
    spanning, near = list(iter_oriented_spanning(o)), list(iter_oriented_near(o))
    calls, walk = [], generate.inner_postorder

    def counted(node):
        calls.append(node)
        return walk(node)

    monkeypatch.setattr(generate, "inner_postorder", counted)
    assert [spanning_tree_index(o, es) for es in spanning] == list(range(len(spanning)))
    assert [near_tree_index(o, es) for es in near] == list(range(len(near)))
    assert calls == []


def test_block_starts_are_built_once_per_shape_and_kind(monkeypatch):
    """Ranking every oriented spanning tree of a P of 30 four-edge chains
    (4960 trees, 4959 of them with a chain broken past its first edge)
    builds each shape's block starts (`_starts`, counted over the module
    binding) at most once per (shape, kind): they are kept with the plans,
    not rebuilt in each call."""
    o = OrientedSP(parse_sp(
        "P(" + ",".join(f"S(e(s,a{i}),e(a{i},b{i}),e(b{i},c{i}),e(c{i},t))" for i in range(30)) + ")"
    ))
    spanning = list(iter_oriented_spanning(o))
    calls, starts = [], generate._starts

    def counted(parts, near):
        calls.append((tuple(map(id, parts)), near))
        return starts(parts, near)

    monkeypatch.setattr(generate, "_starts", counted)
    assert [spanning_tree_index(o, es) for es in spanning] == list(range(4960))
    assert calls and max(Counter(calls).values()) == 1


def test_multiset_unrank_inverts_multiset_rank(monkeypatch):
    """`multiset_unrank` gives every multiset over m items of size k <= 6
    back from its rank, and seeded random multisets over m = 10**30 items
    too, each with at most k (log2 m + 2) binomials: bisection per place,
    never a pass over the m items."""
    for m in range(7):
        for k in range(7):
            for rank, seq in enumerate(multiset_enumerate(m, k)):
                assert multiset_unrank(rank, m, k) == seq
    m, rng = 10**30, random.Random(11)
    calls, binomial = [], generate.multiset_coefficient

    def counted(m, k):
        calls.append((m, k))
        return binomial(m, k)

    monkeypatch.setattr(generate, "multiset_coefficient", counted)
    for _ in range(40):
        k = rng.randint(1, 6)
        seq = tuple(sorted(rng.randrange(m) for _ in range(k)))
        rank = multiset_rank(seq, m)
        calls.clear()
        assert multiset_unrank(rank, m, k) == seq
        assert len(calls) <= k * (m.bit_length() + 2)
        rank = rng.randrange(binomial(m, k))
        assert multiset_rank(multiset_unrank(rank, m, k), m) == rank


_WIDE_TEXT = "P(" + ",".join(f"S(e(s,a{i}),e(a{i},b{i}),e(b{i},c{i}),e(c{i},t))" for i in range(30)) + ")"
_TRIANGLES_TEXT = "S(" + ",".join(
    f"P(e(v{i},v{i + 1}),S(e(v{i},a{i}),e(a{i},v{i + 1})))" for i in range(40)
) + ")"


@pytest.mark.parametrize("text", [
    pytest.param(_TRIANGLES_TEXT, id="triangles40"),
    pytest.param(_WIDE_TEXT, id="wide"),
    pytest.param(deep_nest_text(36), id="nest36"),
    pytest.param(twin_nest_text(2000), id="twins2000"),
])
def test_the_index_inverts_unrank_at_random_positions(text):
    """At seeded random positions of both kinds, the index of the tree that
    `unrank` gives is the position: on a chain of 40 triangles (3**40
    trees), a P of 30 four-edge chains (wide classes), the depth-36 nest,
    whose lists do not fit in memory, and twin nests of depth 2000, past
    the recursion limit."""
    o, rng = OrientedSP(parse_sp(text)), random.Random(5)
    counts = count_oriented(o)
    for near, index, count in ((False, spanning_tree_index, counts.spanning),
                               (True, near_tree_index, counts.near)):
        for i in [0, count - 1] + [rng.randrange(count) for _ in range(10)]:
            assert index(o, unrank(o, i, near)) == i


def test_unrank_rejects_positions_out_of_range():
    """`unrank` raises IndexError at -1 and at the count, and gives the last
    streamed tree just below the count, on a lone edge and on the diamond."""
    for text in ("e(s,t)", DIAMOND_TEXT):
        o = OrientedSP(parse_sp(text))
        counts = count_oriented(o)
        for near, stream, count in ((False, iter_oriented_spanning, counts.spanning),
                                    (True, iter_oriented_near, counts.near)):
            for i in (-1, count):
                with pytest.raises(IndexError):
                    unrank(o, i, near)
            assert unrank(o, count - 1, near) == list(stream(o))[-1]


@pytest.mark.parametrize("text", [pytest.param(_WIDE_TEXT, id="wide"), pytest.param(deep_nest_text(36), id="nest36")])
def test_unrank_builds_no_enumeration_list(text, monkeypatch):
    """`unrank` reads the plan program alone: with `_placed` and `_streams`
    patched to raise, it still gives a tree at both ends of each kind."""

    def refuse(*args, **kwargs):
        raise AssertionError("an enumeration list was built")

    o = OrientedSP(parse_sp(text))
    counts = count_oriented(o)
    monkeypatch.setattr(generate, "_placed", refuse)
    monkeypatch.setattr(generate, "_streams", refuse)
    for near, count in ((False, counts.spanning), (True, counts.near)):
        for i in (0, count // 2, count - 1):
            assert unrank(o, i, near).cardinality == build_plan(o).n - 1 - near
