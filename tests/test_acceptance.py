"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 7 measures throughput and is a soft gate: its failure mode is
meant to trigger investigation, so it reports the measured ratios in
the failure message.
"""

import time

import pytest

from sptrees import (
    FixBoth,
    FixNone,
    FixSet,
    OrientedSP,
    SemiorientedSP,
    all_near_trees,
    all_spanning_trees,
    automorphisms,
    burnside_count,
    count_oriented,
    count_semioriented,
    count_total,
    iter_oriented_spanning,
    kirchhoff_count,
    mirror_pairing,
    orbit_partition,
    oriented_both,
    oriented_spanning,
    parse_sp,
    reversal_index_perm,
    semioriented_spanning,
    underlying_graph,
)
from sptrees.core import normalize, parallel, series, edge

from conftest import (
    DIAMOND_TEXT,
    THETA_TEXT,
    chain,
    mirror_symmetric,
    orbit_exactly_once,
    reference_classes,
    small_corpus,
)
from test_generate import _balanced_instance


def test_criterion_1_diamond_ground_truth():
    start = time.perf_counter()
    diamond = parse_sp(DIAMOND_TEXT)
    g = underlying_graph(diamond)
    trees = all_spanning_trees(g)
    assert count_total(OrientedSP(diamond)).spanning == 8
    assert len(trees) == 8
    report = orbit_partition(trees, automorphisms(g, FixNone()), g)
    assert report.orbit_count == 3
    assert report.orbit_sizes() == (2, 2, 4)
    semi = semioriented_spanning(SemiorientedSP(diamond))
    assert len(semi) == count_semioriented(SemiorientedSP(diamond)) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: diamond total=8 orbits=3 sizes=(4,2,2) semi=3 "
          f"[{elapsed:.3f}s]")


def test_criterion_2_oriented_diamond():
    diamond = parse_sp(DIAMOND_TEXT)
    g = underlying_graph(diamond)
    aut_or = automorphisms(g, FixBoth("2", "3"))
    assert len(aut_or) == 2
    report = orbit_partition(all_spanning_trees(g), aut_or, g)
    formula = count_oriented(OrientedSP(diamond)).spanning
    enumerated = oriented_spanning(OrientedSP(diamond))
    assert formula == len(enumerated) == report.orbit_count == 5
    assert orbit_exactly_once(enumerated, report)
    print("\nACCEPTANCE 2 PASS: oriented diamond formula=enumeration=oracle=5")


def test_criterion_3_theta_ground_truth():
    start = time.perf_counter()
    theta = parse_sp(THETA_TEXT)
    g = underlying_graph(theta)
    assert count_total(OrientedSP(theta)).spanning == kirchhoff_count(g) == 15
    counts = count_oriented(OrientedSP(theta))
    assert counts.spanning == 9
    semi = count_semioriented(SemiorientedSP(theta))
    aut_semi = automorphisms(g, FixSet("s", "t"))
    assert semi == burnside_count(all_spanning_trees(g), aut_semi, g) == 6
    # near-tree count adjudicated by the oracle and frozen: 6
    near_report = orbit_partition(
        all_near_trees(g, "s", "t"), automorphisms(g, FixBoth("s", "t")), g
    )
    assert counts.near == near_report.orbit_count == 6
    assert len(oriented_both(OrientedSP(theta))[1]) == 6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS: theta total=15 oriented=9 semi=6 near=6 "
          f"[{elapsed:.3f}s]")


def _corpus_200():
    return small_corpus(200, max_vertices=10)


def test_criterion_4_oracle_cross_consistency():
    start = time.perf_counter()
    passed = 0
    for tree in _corpus_200():
        g = underlying_graph(tree)
        s, t = tree.source, tree.target
        trees = all_spanning_trees(g)
        assert len(trees) == kirchhoff_count(g)
        aut_or = automorphisms(g, FixBoth(s, t))
        aut_semi = automorphisms(g, FixSet(s, t))
        report_or = orbit_partition(trees, aut_or, g)
        assert report_or.orbit_count == burnside_count(trees, aut_or, g)
        spanning, near = oriented_both(OrientedSP(tree))
        assert orbit_exactly_once(spanning, report_or)
        near_report = orbit_partition(all_near_trees(g, s, t), aut_or, g)
        assert orbit_exactly_once(near, near_report)
        semi = semioriented_spanning(SemiorientedSP(tree))
        assert orbit_exactly_once(semi, orbit_partition(trees, aut_semi, g))
        passed += 1
    elapsed = time.perf_counter() - start
    assert passed == 200
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: 200/200 oracle cross-consistency [{elapsed:.1f}s]")


def test_criterion_5_mirror_structure():
    agree = 0
    for tree in _corpus_200():
        g = underlying_graph(tree)
        n_or = len(automorphisms(g, FixBoth(tree.source, tree.target)))
        n_semi = len(automorphisms(g, FixSet(tree.source, tree.target)))
        pairing = mirror_pairing(tree)
        exchange = n_semi == 2 * n_or
        assert (pairing is not None) == exchange
        if pairing is not None:
            assert n_semi == 2 * n_or
        else:
            assert n_semi == n_or
        agree += 1
    assert agree == 200
    print("\nACCEPTANCE 5 PASS: mirror pairing iff terminal exchange, 200/200")


def test_criterion_6_counting_recurrences():
    for tree in small_corpus(60, max_vertices=10):
        counts = count_oriented(OrientedSP(tree))
        spanning, near = oriented_both(OrientedSP(tree))
        assert counts.spanning == len(spanning)
        assert counts.near == len(near)
        assert count_total(OrientedSP(tree)).spanning == kirchhoff_count(
            underlying_graph(tree)
        )
    for k in (2, 10, 50):
        tree = chain(k)
        counts = count_oriented(OrientedSP(tree))
        spanning, near = oriented_both(OrientedSP(tree))
        assert (counts.spanning, counts.near) == (len(spanning), len(near)) == (1, k)
        assert count_total(OrientedSP(tree)).spanning == kirchhoff_count(
            underlying_graph(tree)
        ) == 1
    big = _balanced_instance()
    total = count_total(OrientedSP(big)).spanning
    assert total > 2**64
    assert total == kirchhoff_count(underlying_graph(big))
    print(f"\nACCEPTANCE 6 PASS: counts=lengths, Kirchhoff exact "
          f"(balanced instance: {total} > 2^64)")


def _bundle_of_chains(bundles: int, tag: str):
    """Parallel bundle of identical 3-chains (fresh labels per bundle)."""
    kids = []
    for i in range(bundles):
        a, b = f"{tag}a{i}", f"{tag}b{i}"
        kids.append(series(edge("s", a), edge(a, b), edge(b, "t")))
    return normalize(parallel(*kids))


def _time_enumeration(tree) -> tuple[float, int, int]:
    g = OrientedSP(tree)
    count = count_oriented(g).spanning
    n = underlying_graph(tree).n
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        emitted = 0
        for _es in iter_oriented_spanning(g):
            emitted += 1
        best = min(best, time.perf_counter() - start)
        assert emitted == count
    return best, count, n


def test_criterion_7_output_linearity_smoke():
    """Soft criterion: total work should track n * (number of trees).

    Emitting one tree costs Theta(n) (it has n - 1 edges), so the
    stable quantity under scaling is time / (n * trees); the raw time
    per tree necessarily grows with n.
    """
    sizes = (3, 6, 12, 24, 48)
    normalized = []
    for bundles in sizes:
        elapsed, count, n = _time_enumeration(_bundle_of_chains(bundles, f"q{bundles}"))
        normalized.append(elapsed / (n * count))
    base = normalized[0]
    ratios = [value / base for value in normalized]
    assert max(ratios) < 3.0, (
        f"output-linearity ratios {['%.2f' % r for r in ratios]} exceeded 3x; "
        "investigate before rejecting"
    )
    print(f"\nACCEPTANCE 7 PASS: normalized time ratios "
          f"{['%.2f' % r for r in ratios]} (threshold 3.0)")


def test_criterion_8_index_stability():
    total = 0
    for seed in range(50):
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
                forward = reversal_index_perm(rep_a, rep_b)
                backward = reversal_index_perm(rep_b, rep_a)
                assert sorted(forward) == list(range(len(forward)))
                for x, fx in enumerate(forward):
                    assert backward[fx] == x
        total += 1
    assert total == 50
    print("\nACCEPTANCE 8 PASS: reversal index permutations total and involutive, 50/50")
