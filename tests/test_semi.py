"""Semioriented enumeration, reversal index permutations, and counting."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptrees import (
    FixSet,
    OrientedSP,
    RandomSpParams,
    SemiorientedSP,
    all_spanning_trees,
    automorphisms,
    burnside_count,
    count_oriented,
    count_semioriented,
    iter_semioriented_spanning,
    mirror_pairing,
    orbit_partition,
    oriented_spanning,
    parse_sp,
    random_sp,
    reversal_index_perm,
    semioriented_spanning,
    serialize_sp,
    underlying_graph,
)
from sptrees import canonical, core, generate
from sptrees.cli import run
from sptrees.core import Parallel
from sptrees.generate import _partners, _streams, build_plan, multiset_coefficient
from sptrees.oracle import apply_permutation
from sptrees.semi import _assignment_perm, _masks

from conftest import (
    deep_nest_text,
    mirror_pairs,
    mirror_symmetric,
    orbit_exactly_once,
    reference_assignment_perm,
    reference_classes,
    reference_code,
    reference_codes,
    reference_index_perm,
    reference_semioriented_masks,
    relabeled_shuffled_copy,
    reversal_map,
    small_corpus,
)


def test_diamond_semioriented_count_is_three(diamond):
    semi = semioriented_spanning(SemiorientedSP(diamond))
    assert len(semi) == count_semioriented(SemiorientedSP(diamond)) == 3
    g = underlying_graph(diamond)
    aut_semi = automorphisms(g, FixSet("2", "3"))
    report = orbit_partition(all_spanning_trees(g), aut_semi, g)
    assert report.orbit_count == 3
    assert orbit_exactly_once(semi, report)


def test_four_cycle_collapses_to_one_tree():
    c4 = parse_sp("P(S(e(s,a),e(a,t)),S(e(s,b),e(b,t)))")
    semi = semioriented_spanning(SemiorientedSP(c4))
    assert len(semi) == count_semioriented(SemiorientedSP(c4)) == 1
    g = underlying_graph(c4)
    aut_semi = automorphisms(g, FixSet("s", "t"))
    assert len(aut_semi) == 4
    assert burnside_count(all_spanning_trees(g), aut_semi, g) == 1


def test_theta_semioriented_count_is_six(theta):
    """Burnside over the order-4 group: (15 + 3 + 3 + 3) / 4 = 6."""
    g = underlying_graph(theta)
    aut_semi = automorphisms(g, FixSet("s", "t"))
    assert len(aut_semi) == 4
    trees = all_spanning_trees(g)
    fixed_per_element = sorted(
        sum(1 for t in trees if apply_permutation(g, sigma, t) == t)
        for sigma in aut_semi
    )
    assert fixed_per_element == [3, 3, 3, 15]
    assert burnside_count(trees, aut_semi, g) == 6
    semi = semioriented_spanning(SemiorientedSP(theta))
    assert len(semi) == count_semioriented(SemiorientedSP(theta)) == 6
    assert orbit_exactly_once(semi, orbit_partition(trees, aut_semi, g))


def test_two_chain_has_single_semi_tree():
    two = parse_sp("S(e(s,a),e(a,t))")
    assert count_semioriented(SemiorientedSP(two)) == 1
    assert len(semioriented_spanning(SemiorientedSP(two))) == 1


def test_leaf_semioriented_matches_oriented():
    leaf = parse_sp("e(s,t)")
    assert semioriented_spanning(SemiorientedSP(leaf)) == oriented_spanning(
        OrientedSP(leaf)
    )


def test_no_pairing_output_is_bit_identical():
    tree = parse_sp("S(P(e(s,m),S(e(s,a),e(a,m))),e(m,t))")
    assert mirror_pairing(tree) is None
    assert semioriented_spanning(SemiorientedSP(tree)) == oriented_spanning(
        OrientedSP(tree)
    )
    assert count_semioriented(SemiorientedSP(tree)) == count_oriented(
        OrientedSP(tree)
    ).spanning


def test_reversal_index_perm_single_edge():
    leaf = parse_sp("e(s,t)")
    assert reversal_index_perm(leaf, leaf) == (0,)


def test_reversal_index_perm_three_chain_near():
    chain3 = parse_sp("S(e(s,a),e(a,b),e(b,t))")
    assert reversal_index_perm(chain3, chain3, kind="near") == (2, 1, 0)
    assert reversal_index_perm(chain3, chain3, kind="spanning") == (0,)


def test_reversal_index_perm_diamond_paths(diamond):
    path1, path2 = diamond.children[1], diamond.children[2]
    r = reversal_map(path1, path2)
    assert r is not None
    assert reversal_index_perm(path1, path2) == (0,)


def test_reversal_index_perm_rejects_a_pair_that_is_no_mirror():
    leaf, chain2 = parse_sp("e(s,t)"), parse_sp("S(e(s,a),e(a,t))")
    tail = parse_sp("S(P(e(s,m),S(e(s,a),e(a,m))),e(m,t))")
    for child, mirror in ((leaf, chain2), (chain2, leaf), (tail, tail)):
        with pytest.raises(ValueError):
            reversal_index_perm(child, mirror)
    with pytest.raises(ValueError):
        reversal_index_perm(leaf, leaf, kind="both")


def _assert_perms_match_the_reference(tree):
    for child, mirror in mirror_pairs(tree):
        for kind in ("spanning", "near"):
            assert reversal_index_perm(child, mirror, kind) == reference_index_perm(
                child, mirror, kind
            )


@pytest.mark.parametrize("seed", range(60))
def test_reversal_index_perm_matches_the_leaf_map_reference(seed):
    """The index action composed from the plans equals ranking each tree's
    leaf-mapped reversal, for both kinds and every mirror pair: the root
    against itself, series children, parallel class representatives."""
    tree = mirror_symmetric(seed)
    assert (tree, tree) in mirror_pairs(tree)
    _assert_perms_match_the_reference(tree)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reversal_index_perm_matches_the_reference_on_random_draws(seed):
    tree = random_sp(RandomSpParams(seed=seed, max_depth=3, max_children=3))
    if count_oriented(OrientedSP(tree)).near > 5000:
        tree = random_sp(RandomSpParams(seed=seed, max_depth=2, max_children=3))
    _assert_perms_match_the_reference(tree)


@pytest.mark.parametrize("seed", range(60))
def test_one_member_classes_keep_the_representative_actions(seed):
    """A one-member class's assignment actions are its representative's own
    actions, as ranking every multiset image gives, and larger classes still
    rank them."""
    for child, mirror in mirror_pairs(mirror_symmetric(seed)):
        if count_oriented(OrientedSP(child)).near > 400:
            continue
        near = list(reversal_index_perm(child, mirror, "near"))
        span = list(reversal_index_perm(child, mirror, "spanning"))
        for size in (1, 2, 3) if len(near) <= 12 else (1,):
            got = tuple(list(_assignment_perm(size, near, span, kind)) for kind in (True, False))
            assert got == reference_assignment_perm(size, near, span)
        assert reference_assignment_perm(1, near, span) == (near, span)


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 7), size=st.integers(1, 30), data=st.data())
def test_assignment_actions_equal_the_sorted_rank_rule(r, size, data):
    """Under any permutation of a representative's near trees, and for any
    class size, the class's actions equal those of ranking each sorted
    image multiset, on both sides of the count-vector cut (`generate._wide`)."""
    if multiset_coefficient(r, size) > 20_000:
        size = 2
    near = data.draw(st.permutations(range(r)))
    span = data.draw(st.permutations(range(data.draw(st.integers(1, 4)))))
    got = tuple(
        list(_assignment_perm(size, tuple(near), tuple(span), kind)) for kind in (True, False)
    )
    assert got == reference_assignment_perm(size, near, span)


@pytest.mark.parametrize("kind", ["series", "parallel"])
def test_semioriented_path_builds_no_leaf_map(kind, tmp_path, capsys, monkeypatch):
    """Counting and enumerating semioriented trees, in the library and the
    CLI, never build a leaf map, move a mask bit by bit or rank a tree."""
    tree = next(t for t in map(mirror_symmetric, range(60)) if mirror_pairing(t).kind == kind)
    path = tmp_path / "mirror.sp"
    path.write_text(serialize_sp(tree) + "\n", encoding="utf-8")

    def results():
        s = SemiorientedSP(parse_sp(serialize_sp(tree)))
        code = run(["enumerate", str(path), "--mode", "semioriented"])
        listed = (semioriented_spanning(s), list(iter_semioriented_spanning(s)))
        return code, capsys.readouterr(), count_semioriented(s), listed

    expected = results()
    assert expected[0] == 0 and expected[1].out

    def refuse(*_):
        raise AssertionError("a leaf-map step ran on the semioriented path")

    banned = (canonical.iso_map, generate._index, core.mask_image)
    for name, module in list(sys.modules.items()):
        if name == "sptrees" or name.startswith("sptrees."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in banned):
                    monkeypatch.setattr(module, attr, refuse)
    assert results() == expected


@pytest.mark.parametrize("seed", range(50))
def test_mirror_symmetric_perms_total_and_involutive(seed):
    """Reversal index permutations are total bijections and involutions."""
    tree = mirror_symmetric(seed)
    pairing = mirror_pairing(tree)
    assert pairing is not None
    if pairing.kind == "series":
        kids = tree.children
        k = len(kids)
        for i in range(k):
            j = k - 1 - i
            forward = reversal_index_perm(kids[i], kids[j])
            backward = reversal_index_perm(kids[j], kids[i])
            assert sorted(forward) == list(range(len(forward)))
            for x, fx in enumerate(forward):
                assert backward[fx] == x
    else:
        classes = reference_classes(tree)
        for a, b in pairing.class_pairs:
            rep_a = tree.children[classes[a][1][0]]
            rep_b = tree.children[classes[b][1][0]]
            for kind in ("spanning", "near"):
                forward = reversal_index_perm(rep_a, rep_b, kind=kind)
                backward = reversal_index_perm(rep_b, rep_a, kind=kind)
                assert sorted(forward) == list(range(len(forward)))
                for x, fx in enumerate(forward):
                    assert backward[fx] == x


@pytest.mark.parametrize("seed", range(30))
def test_semi_agrees_with_oracle_on_small_instances(seed):
    tree = small_corpus(1, max_vertices=10, start_seed=seed * 601)[0]
    g = underlying_graph(tree)
    semi = semioriented_spanning(SemiorientedSP(tree))
    assert list(iter_semioriented_spanning(SemiorientedSP(tree))) == semi
    assert len(semi) == count_semioriented(SemiorientedSP(tree))
    aut_semi = automorphisms(g, FixSet(tree.source, tree.target))
    trees = all_spanning_trees(g)
    report = orbit_partition(trees, aut_semi, g)
    assert orbit_exactly_once(semi, report)
    assert burnside_count(trees, aut_semi, g) == report.orbit_count


@pytest.mark.parametrize("seed", range(25))
def test_filter_conservation(seed):
    """With a reversal, semi count = (oriented count + fixed candidates) / 2."""
    tree = mirror_symmetric(seed)
    oriented_count = count_oriented(OrientedSP(tree)).spanning
    semi_count = count_semioriented(SemiorientedSP(tree))
    fixed = 2 * semi_count - oriented_count
    assert 0 <= fixed <= oriented_count
    assert (oriented_count + fixed) % 2 == 0
    if underlying_graph(tree).n <= 10:
        g = underlying_graph(tree)
        aut_semi = automorphisms(g, FixSet(tree.source, tree.target))
        assert (
            burnside_count(all_spanning_trees(g), aut_semi, g) == semi_count
        )


@pytest.mark.parametrize("seed", range(25))
def test_semi_output_is_subsequence_of_oriented(seed):
    tree = mirror_symmetric(seed)
    oriented_list = oriented_spanning(OrientedSP(tree))
    semi = semioriented_spanning(SemiorientedSP(tree))
    positions = {es: i for i, es in enumerate(oriented_list)}
    mapped = [positions[es] for es in semi]
    assert mapped == sorted(mapped)
    assert len(set(mapped)) == len(mapped)


def _assert_filter_matches_the_reference(tree):
    """`_masks` in the input numbering and in a permuted one: the per-candidate
    reference's masks, a subsequence of the oriented stream, as many as the
    semioriented count."""
    shuffled = list(range(build_plan(tree).m))
    random.Random(len(shuffled)).shuffle(shuffled)
    for numbering in (None, shuffled):
        kept = list(_masks(tree, numbering))
        assert kept == reference_semioriented_masks(tree, numbering)
        oriented_stream = _streams(tree, False, numbering=numbering)[0]
        assert all(mask in oriented_stream for mask in kept)  # in order: one pass
        assert len(kept) == count_semioriented(SemiorientedSP(tree))


@pytest.mark.parametrize("seed", range(60))
def test_filter_matches_the_per_candidate_reference(seed):
    tree = mirror_symmetric(seed)
    _assert_filter_matches_the_reference(tree)
    _assert_filter_matches_the_reference(relabeled_shuffled_copy(tree, seed))


@pytest.mark.parametrize(
    "text",
    [
        # A P root whose children form one self-paired class: one slot.
        "P(" + ",".join(f"S(e(s,a{i}),e(a{i},b{i}),e(b{i},t))" for i in range(5)) + ")",
        # An odd series palindrome whose middle child has its own reversal.
        "S(P(e(s,a),S(e(s,x),e(x,a))),P(S(e(a,p),e(p,q),e(q,b)),S(e(a,r),e(r,b))),"
        "P(e(b,t),S(e(b,y),e(y,t))))",
        # A P root stored against the class order, one class's members apart.
        "P(S(e(s,a),e(a,b),e(b,t)),e(s,t),S(e(s,c),P(e(c,t),S(e(c,d),e(d,t)))),"
        "S(e(s,f),e(f,g),e(g,t)),S(P(S(e(s,h),e(h,i)),e(s,i)),e(i,t)))",
    ],
    ids=["one-class-parallel", "odd-series-palindrome", "stored-against-class-order"],
)
def test_filter_matches_the_reference_on_named_roots(text):
    tree = parse_sp(text)
    assert mirror_pairing(tree) is not None
    _assert_filter_matches_the_reference(tree)


def _parent_class_pairs(node):
    """`mirror_pairing(node).class_pairs` class by class, each class looking
    up its representative's reversal code among the class codes."""
    codes = reference_codes(node)
    classes = reference_classes(node, codes)
    by_code = {code: idx for idx, (code, _) in enumerate(classes)}
    pairs = []
    for idx, (_, members) in enumerate(classes):
        other = by_code[codes[id(node.children[members[0]])][1]]
        if other >= idx:
            pairs.append((idx, other))
    return tuple(pairs)


@pytest.mark.parametrize("seed", range(60))
def test_partners_pair_classes_of_equal_size_both_ways(seed):
    """On every parallel pair, `_partners` reads the two plans alone: a
    size-keeping bijection onto the other plan's classes, each class onto
    the one of its reversal code, and the pair read the other way inverts
    it.  The plans keep the classes by descending code."""
    for x, y in mirror_pairs(mirror_symmetric(seed)):
        if not isinstance(x, Parallel):
            continue
        xp, yp = build_plan(x), build_plan(y)
        assert [(cp.rep_plan.code, cp.rep_plan.rev, cp.size) for cp in xp.parts] == [
            (code, reference_code(x.children[ms[0]])[1], len(ms)) for code, ms in reference_classes(x)
        ]
        forward, backward = _partners(xp, yp), _partners(yp, xp)
        assert sorted(forward) == list(range(len(yp.parts)))
        assert [yp.parts[b].size for b in forward] == [cp.size for cp in xp.parts]
        assert [yp.parts[b].rep_plan.code for b in forward] == [cp.rep_plan.rev for cp in xp.parts]
        assert [backward[b] for b in forward] == list(range(len(xp.parts)))
        if x is y:
            assert mirror_pairing(x).class_pairs == _parent_class_pairs(x)


def test_reversal_checks_on_a_fresh_deep_nest():
    """The pairing and the index action compare the plans' codes, read
    children first, so a freshly parsed 2000-deep nest, which no reversal
    maps onto itself, raises no RecursionError."""
    assert mirror_pairing(parse_sp(deep_nest_text(2000))) is None
    tree = parse_sp(deep_nest_text(2000))
    with pytest.raises(ValueError, match="not a reversal"):
        reversal_index_perm(tree, tree)
