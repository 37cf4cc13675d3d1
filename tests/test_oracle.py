"""Brute-force oracle: spanning trees, automorphism groups, orbits, counts."""

import inspect
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sptrees import (
    EdgeSet,
    FixBoth,
    FixNone,
    FixSet,
    LimitExceeded,
    NonIntegralResult,
    RandomSpParams,
    all_near_trees,
    all_spanning_trees,
    automorphisms,
    burnside_count,
    kirchhoff_count,
    orbit_partition,
    parse_sp,
    random_sp,
    underlying_graph,
)
from sptrees import oracle
from sptrees.core import LabeledGraph, mask_image
from sptrees.oracle import (
    _columns,
    _forests,
    _images,
    _least_images,
    _tables,
    apply_permutation,
)

from conftest import (
    THETA_TEXT,
    all_acyclic_near_sets,
    mirror_symmetric,
    reference_automorphisms,
    reference_burnside_count,
    reference_forests,
    reference_least_images,
    reference_orbit_partition,
    small_corpus,
    sp_shapes,
)

# Spanning trees of the diamond as edge index sets over
# (1,2) (1,3) (2,3) (2,4) (3,4): the catalog of all eight.
DIAMOND_TREES = [
    frozenset(s)
    for s in (
        {0, 1, 4},  # 12 13 34
        {0, 1, 3},  # 12 13 24
        {0, 3, 4},  # 12 24 34
        {1, 3, 4},  # 13 24 34
        {0, 2, 4},  # 12 23 34
        {1, 2, 3},  # 13 23 24
        {0, 2, 3},  # 12 23 24
        {1, 2, 4},  # 13 23 34
    )
]


def _diamond_graph(diamond) -> LabeledGraph:
    return underlying_graph(diamond)


def test_single_edge_spanning_trees():
    g = underlying_graph(parse_sp("e(s,t)"))
    assert all_spanning_trees(g) == [EdgeSet.of([0])]
    assert all_near_trees(g, "s", "t") == [EdgeSet(0)]


def test_diamond_catalog(diamond):
    g = _diamond_graph(diamond)
    # sanity: the edge order of the parsed diamond
    assert g.edges == (("2", "3"), ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"))
    trees = all_spanning_trees(g)
    remap = {0: 2, 1: 0, 2: 1, 3: 3, 4: 4}  # parsed order -> catalog order
    found = {frozenset(remap[i] for i in t.indices()) for t in trees}
    assert found == set(DIAMOND_TREES)


def test_theta_spanning_count(theta):
    g = underlying_graph(theta)
    assert len(all_spanning_trees(g)) == 15 == kirchhoff_count(g)


def test_limit_is_enforced():
    big = parse_sp("S(" + ",".join(f"e(v{i},v{i + 1})" for i in range(20)) + ")")
    with pytest.raises(LimitExceeded):
        all_spanning_trees(underlying_graph(big))
    assert len(all_spanning_trees(underlying_graph(big), limit=30)) == 1


def test_diamond_automorphism_group(diamond):
    g = _diamond_graph(diamond)
    autos = automorphisms(g, FixNone())
    assert len(autos) == 4
    perms = {tuple(sigma[v] for v in ("1", "2", "3", "4")) for sigma in autos}
    assert perms == {
        ("1", "2", "3", "4"),  # identity
        ("4", "2", "3", "1"),  # horizontal flip
        ("1", "3", "2", "4"),  # vertical flip
        ("4", "3", "2", "1"),  # rotation
    }


def test_diamond_fixing_policies(diamond):
    g = _diamond_graph(diamond)
    fix_both = automorphisms(g, FixBoth("2", "3"))
    assert len(fix_both) == 2
    assert {tuple(s[v] for v in ("1", "2", "3", "4")) for s in fix_both} == {
        ("1", "2", "3", "4"),
        ("4", "2", "3", "1"),
    }
    fix_set = automorphisms(g, FixSet("2", "3"))
    assert len(fix_set) == 4


def test_asymmetric_instance_has_trivial_group():
    # theta(1,2,3) plus a pendant edge: distinct path lengths kill the
    # swaps, the pendant kills the terminal exchange
    tree = parse_sp(
        "S(P(e(s,t),S(e(s,a),e(a,t)),S(e(s,b),e(b,c),e(c,t))),e(t,u))"
    )
    g = underlying_graph(tree)
    assert len(automorphisms(g, FixNone())) == 1


def test_group_closure_on_corpus():
    for tree in small_corpus(10, max_vertices=8):
        g = underlying_graph(tree)
        autos = automorphisms(g, FixNone())
        table = {tuple(sorted(s.items())) for s in autos}
        assert tuple(sorted({v: v for v in g.vertices}.items())) in table
        for a in autos:
            for b in autos:
                composed = {v: a[b[v]] for v in g.vertices}
                assert tuple(sorted(composed.items())) in table


def test_policy_groups_nest(diamond):
    for tree in small_corpus(15, max_vertices=9):
        g = underlying_graph(tree)
        s, t = tree.source, tree.target
        both = {tuple(sorted(p.items())) for p in automorphisms(g, FixBoth(s, t))}
        either = {tuple(sorted(p.items())) for p in automorphisms(g, FixSet(s, t))}
        free = {tuple(sorted(p.items())) for p in automorphisms(g, FixNone())}
        assert both <= either <= free
        assert len(either) in (len(both), 2 * len(both))


def test_diamond_orbits_under_full_group(diamond):
    g = _diamond_graph(diamond)
    trees = all_spanning_trees(g)
    report = orbit_partition(trees, automorphisms(g, FixNone()), g)
    assert report.orbit_count == 3
    assert report.orbit_sizes() == (2, 2, 4)
    assert report.group_order == 4


def test_diamond_orbits_under_oriented_group(diamond):
    g = _diamond_graph(diamond)
    trees = all_spanning_trees(g)
    report = orbit_partition(trees, automorphisms(g, FixBoth("2", "3")), g)
    assert report.orbit_count == 5


def test_orbits_under_identity_are_singletons(diamond):
    g = _diamond_graph(diamond)
    trees = all_spanning_trees(g)
    identity = [{v: v for v in g.vertices}]
    report = orbit_partition(trees, identity, g)
    assert report.orbit_count == len(trees)
    assert all(len(members) == 1 for _, members in report.orbits)


def test_orbit_members_reachable_from_representative(diamond):
    g = _diamond_graph(diamond)
    trees = all_spanning_trees(g)
    autos = automorphisms(g, FixNone())
    report = orbit_partition(trees, autos, g)
    for rep, members in report.orbits:
        images = {apply_permutation(g, sigma, rep) for sigma in autos}
        assert set(members) <= images


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_orbits_are_exactly_the_images_of_their_representatives(seed):
    tree = random_sp(RandomSpParams(seed=seed))
    g = underlying_graph(tree)
    assume(g.n <= 9)
    s, t = tree.source, tree.target
    trees = all_spanning_trees(g)
    for policy in (FixNone(), FixBoth(s, t), FixSet(s, t)):
        autos = automorphisms(g, policy)
        report = orbit_partition(trees, autos, g)
        reps = set(report.representatives)
        for rep, members in report.orbits:
            images = {apply_permutation(g, sigma, rep) for sigma in autos}
            assert set(members) == images
            assert images & reps == {rep}
            assert report.group_order % len(members) == 0


def test_kirchhoff_examples(diamond, theta):
    assert kirchhoff_count(underlying_graph(diamond)) == 8
    assert kirchhoff_count(underlying_graph(theta)) == 15
    for n in range(3, 9):
        # cycle C_n: edge v0-v1 in parallel with the path through v2..v(n-1)
        path = [f"e(v0,v2)"] + [f"e(v{i},v{i + 1})" for i in range(2, n - 1)] + [
            f"e(v{n - 1},v1)"
        ]
        cycle = parse_sp(f"P(e(v0,v1),S({','.join(path)}))")
        g = underlying_graph(cycle)
        assert g.n == n
        assert kirchhoff_count(g) == n


def test_burnside_diamond(diamond):
    g = _diamond_graph(diamond)
    trees = all_spanning_trees(g)
    assert burnside_count(trees, automorphisms(g, FixNone()), g) == 3
    assert burnside_count(trees, automorphisms(g, FixBoth("2", "3")), g) == 5


def test_burnside_rejects_non_group(diamond):
    g = _diamond_graph(diamond)
    trees = all_spanning_trees(g)
    identity = {"1": "1", "2": "2", "3": "3", "4": "4"}
    h = {"1": "4", "2": "2", "3": "3", "4": "1"}
    v = {"1": "1", "2": "3", "3": "2", "4": "4"}
    # {e, h, v} is not closed (hv is missing): 8 + 2 + 0 fixed trees over 3
    with pytest.raises(NonIntegralResult):
        burnside_count(trees, [identity, h, v], g)


def test_brute_force_count_matches_kirchhoff_on_corpus():
    for tree in small_corpus(25, max_vertices=10):
        g = underlying_graph(tree)
        assert len(all_spanning_trees(g)) == kirchhoff_count(g)


def test_near_trees_separate_terminals(diamond):
    g = _diamond_graph(diamond)
    separating = all_near_trees(g, "2", "3")
    acyclic = all_acyclic_near_sets(g)
    assert len(acyclic) == 10
    assert len(separating) == 4
    assert set(separating) <= set(acyclic)
    expected = {
        frozenset({g.index_of("1", "2"), g.index_of("2", "4")}),
        frozenset({g.index_of("1", "2"), g.index_of("3", "4")}),
        frozenset({g.index_of("1", "3"), g.index_of("2", "4")}),
        frozenset({g.index_of("1", "3"), g.index_of("3", "4")}),
    }
    assert {frozenset(t.indices()) for t in separating} == expected


def test_orbit_count_equals_burnside_on_corpus():
    for tree in small_corpus(15, max_vertices=9):
        g = underlying_graph(tree)
        trees = all_spanning_trees(g)
        for policy in (FixNone(), FixBoth(tree.source, tree.target)):
            autos = automorphisms(g, policy)
            assert (
                orbit_partition(trees, autos, g).orbit_count
                == burnside_count(trees, autos, g)
            )


# ---------------------------------------------------------------------------
# The kernels against their list-based references (conftest)
# ---------------------------------------------------------------------------

# The single edge, whose only near tree is the empty set, random draws and
# mirror-symmetric draws with up to 14 vertices.
KERNEL_CASES = {
    "edge": parse_sp("e(s,t)"),
    **{f"random{i}": tree for i, tree in enumerate(small_corpus(10, max_vertices=10))},
    **{f"mirror{seed}": mirror_symmetric(seed, max_trees=300) for seed in range(8)},
}
KERNEL_LIMIT = 16
kernel_cases = pytest.mark.parametrize(
    "tree", list(KERNEL_CASES.values()), ids=list(KERNEL_CASES)
)


def _spanning_forests(g) -> list[int]:
    """The spanning trees by the walk that prunes only by edge count."""
    return [mask for mask, _ in reference_forests(g, g.n - 1)]


def _separating_forests(g, s: str, t: str) -> list[EdgeSet]:
    """The near trees by the unmerged walk: every acyclic (n-2)-edge set,
    kept when s and t end in different components."""
    si, ti = g.vertex_index[s], g.vertex_index[t]
    return [EdgeSet(mask) for mask, comp in reference_forests(g, g.n - 2) if comp[si] != comp[ti]]


@kernel_cases
def test_forests_match_the_list_walk(tree):
    g = underlying_graph(tree)
    assert list(_forests(g)) == _spanning_forests(g)


def test_walks_match_the_references_on_every_shape():
    # Both walks, on every simple oriented SP shape with at most 9 edges.
    for m in range(1, 10):
        for text in sp_shapes(m):
            tree = parse_sp(text)
            g = underlying_graph(tree)
            assert list(_forests(g)) == _spanning_forests(g), text
            near = [EdgeSet(mask) for mask in _forests(g, (tree.source, tree.target))]
            assert near == _separating_forests(g, tree.source, tree.target), text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_spanning_walk_matches_the_list_walk_on_random_draws(seed):
    g = underlying_graph(random_sp(RandomSpParams(seed=seed)))
    assume(g.n <= 12)
    assert list(_forests(g)) == _spanning_forests(g)


# Three copies of P(e, two 2-edge chains, one 3-edge chain) in series.
PAL16_TEXT = (
    "S(P(e(s,x),S(e(s,Ap),e(Ap,x)),S(e(s,Aq),e(Aq,x)),S(e(s,Ar),e(Ar,Au),e(Au,x))),"
    "P(e(x,y),S(e(x,Bp),e(Bp,y)),S(e(x,Bq),e(Bq,y)),S(e(x,Br),e(Br,Bu),e(Bu,y))),"
    "P(e(y,t),S(e(y,Cp),e(Cp,t)),S(e(y,Cq),e(Cq,t)),S(e(y,Cr),e(Cr,Cu),e(Cu,t))))"
)


def test_walk_pops_at_most_three_entries_per_forest():
    """A branch is pushed only while every component can still be joined,
    so nearly every pushed branch yields.  The walk's loop iterations are
    counted as line events on its `pop` line; a walk that prunes only by
    edge count pops 15.5 entries per forest on pal16's two walks."""
    code = _forests.__code__
    lines, first = inspect.getsourcelines(_forests)
    pop_line = first + next(i for i, line in enumerate(lines) if "stack.pop()" in line)
    pops = 0

    def on_line(frame, event, arg):
        nonlocal pops
        pops += event == "line" and frame.f_lineno == pop_line
        return on_line

    tree = parse_sp(PAL16_TEXT)
    g = underlying_graph(tree)
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        forests = len(list(_forests(g))) + len(list(_forests(g, (tree.source, tree.target))))
    finally:
        sys.settrace(previous)
    assert forests == 21952 + 28224
    assert pops <= 3 * forests


@kernel_cases
def test_merged_near_walk_matches_the_filtered_walk(tree):
    g = underlying_graph(tree)
    s, t = tree.source, tree.target
    assert all_near_trees(g, s, t, limit=KERNEL_LIMIT) == _separating_forests(g, s, t)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_merged_near_walk_matches_the_filtered_walk_on_random_draws(seed):
    tree = random_sp(RandomSpParams(seed=seed))
    g = underlying_graph(tree)
    assume(g.n <= 12)
    assert all_near_trees(g, tree.source, tree.target) == _separating_forests(
        g, tree.source, tree.target
    )


@pytest.mark.parametrize(
    "text",
    [
        "e(s,t)",
        THETA_TEXT,
        "P(e(s,t),S(e(s,a),P(e(a,t),S(e(a,b),e(b,t)))),S(e(s,c),e(c,t)))",
    ],
    ids=["edge", "theta", "nested"],
)
def test_merged_near_walk_with_a_bare_terminal_edge(text):
    # The s-t edge is a self-loop of the merged graph: no near tree holds it.
    tree = parse_sp(text)
    g = underlying_graph(tree)
    s, t = tree.source, tree.target
    near = all_near_trees(g, s, t)
    assert near == _separating_forests(g, s, t)
    assert not any(es >> g.index_of(s, t) & 1 for es in near)


@pytest.mark.parametrize("seed", [11, 17, 20])
def test_breadth_first_search_matches_reference_on_large_mirror_draws(seed):
    tree = mirror_symmetric(seed)
    g = underlying_graph(tree)
    assert g.n >= 14
    s, t = tree.source, tree.target
    for policy in (FixNone(), FixBoth(s, t), FixSet(s, t)):
        assert automorphisms(g, policy, limit=20) == reference_automorphisms(g, policy)


@kernel_cases
def test_kernels_match_references(tree):
    g = underlying_graph(tree)
    s, t = tree.source, tree.target
    spanning = all_spanning_trees(g, limit=KERNEL_LIMIT)
    near = all_near_trees(g, s, t, limit=KERNEL_LIMIT)
    for policy in (FixNone(), FixBoth(s, t), FixSet(s, t)):
        autos = automorphisms(g, policy, limit=KERNEL_LIMIT)
        assert autos == reference_automorphisms(g, policy)
        for trees in (spanning, near):
            assert orbit_partition(trees, autos, g) == reference_orbit_partition(trees, autos, g)
        # The near trees are closed under the groups that keep {s, t}.
        closed = [spanning] if policy == FixNone() else [spanning, near]
        for trees in closed:
            assert burnside_count(trees, autos, g) == reference_burnside_count(trees, autos, g)


@kernel_cases
def test_oriented_group_is_the_set_group_fixing_s(tree):
    g = underlying_graph(tree)
    s, t = tree.source, tree.target
    aut_semi = automorphisms(g, FixSet(s, t), limit=KERNEL_LIMIT)
    aut_or = [sigma for sigma in aut_semi if sigma[s] == s]
    assert aut_or == automorphisms(g, FixBoth(s, t), limit=KERNEL_LIMIT)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    masks=st.lists(st.integers(0, 2**40 - 1), max_size=12),
)
@example(m=1, seed=0, masks=[])
@example(m=6, seed=1, masks=[0b101010])
@example(m=7, seed=2, masks=[0x40, 0x3F])
@example(m=12, seed=3, masks=[0x800, 0x7FF])
@example(m=13, seed=4, masks=[0x1000, 0x0FFF])
@example(m=17, seed=5, masks=[0x10000, 0xFFFF])
def test_column_table_images_match_mask_image(m, seed, masks):
    perm = random.Random(seed).sample(range(m), m)
    full = (1 << m) - 1
    masks = [0, full] + [x & full for x in masks]
    expected = [mask_image(x, dict(enumerate(perm))) for x in masks]
    assert list(_images(_tables(perm), _columns(masks, m))) == expected


@settings(max_examples=60, deadline=None)
@given(
    tree=st.integers(0, 10_000).map(lambda seed: random_sp(RandomSpParams(seed=seed))),
    order=st.randoms(use_true_random=False),
    policy=st.sampled_from(["none", "both", "set"]),
    with_identity=st.booleans(),
)
# Six edges fill one column; a seventh, moved by the exchange of s and t,
# is a one-bit last column; a lone edge has no element that moves it.
@example(
    tree=parse_sp("P(S(e(s,a),e(a,t)),S(e(s,b),e(b,t)),S(e(s,c),e(c,t)))"),
    order=random.Random(0),
    policy="none",
    with_identity=False,
)
@example(
    tree=parse_sp("P(S(e(s,a),e(a,t)),S(e(s,b),e(b,t)),S(e(s,c),e(c,d),e(d,t)))"),
    order=random.Random(1),
    policy="set",
    with_identity=True,
)
@example(tree=parse_sp("e(s,t)"), order=random.Random(2), policy="set", with_identity=True)
def test_least_images_skip_the_identity_exactly(tree, order, policy, with_identity):
    """The image fold `_least_images` gives what mapping every mask under
    every element bit by bit gives: the spanning keys under `autos` and, as
    `verify_instance` folds them, under its members fixing s, the fixed
    points, and the near keys under its members fixing s, wherever the
    identity stands in `autos` and whether or not it is there."""
    g = underlying_graph(tree)
    assume(g.n <= 9)
    s, t = tree.source, tree.target
    fix = {"none": FixNone(), "both": FixBoth(s, t), "set": FixSet(s, t)}[policy]
    autos = automorphisms(g, fix)
    if not with_identity:
        autos = [sigma for sigma in autos if any(u != v for u, v in sigma.items())]
    order.shuffle(autos)
    spanning = [es.mask for es in all_spanning_trees(g)]
    near = [es.mask for es in all_near_trees(g, s, t)]
    fixing_s = [sigma for sigma in autos if sigma[s] == s]
    keys, fixed = _least_images(g, autos, spanning)
    fixed_keys, _, near_keys = _least_images(g, fixing_s, spanning, near)
    assert (keys, fixed_keys, fixed) == reference_least_images(g, spanning, autos, s)
    assert near_keys == reference_least_images(g, near, fixing_s)[0]


@pytest.mark.parametrize("fold", [orbit_partition, burnside_count])
def test_public_folds_map_each_element_but_the_identity_once(fold, monkeypatch):
    """`orbit_partition` and `burnside_count` are each one image fold: on a
    `P` of 4 two-edge chains, whose Aut_semi has 48 elements, each builds
    the tables of the 47 elements other than the identity once and maps
    the trees through them once."""
    tree = parse_sp("P(" + ",".join(f"S(e(s,m{i}),e(m{i},t))" for i in range(4)) + ")")
    g = underlying_graph(tree)
    autos = automorphisms(g, FixSet(tree.source, tree.target))
    assert len(autos) == 48
    calls = {"tables": 0, "images": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(oracle, "_tables", counted("tables", _tables))
    monkeypatch.setattr(oracle, "_images", counted("images", _images))
    fold(all_spanning_trees(g), autos, g)
    assert calls == {"tables": 47, "images": 47}


def test_component_labels_have_no_vertex_cap():
    # A 300-edge path: n = 301 vertices, one spanning tree, and each of the
    # 300 edges left out gives a near tree separating the ends.
    path = parse_sp("S(" + ",".join(f"e(v{i},v{i + 1})" for i in range(300)) + ")")
    g = underlying_graph(path)
    assert g.n == 301
    assert len(all_spanning_trees(g, limit=400)) == 1
    assert len(all_near_trees(g, path.source, path.target, limit=400)) == 300
