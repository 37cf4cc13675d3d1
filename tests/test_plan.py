"""One plan per tree: the root plan is built once, it holds no tree list, and
isomorphic subtrees share one position-free plan."""

import contextlib
import gc
import itertools
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sptrees import (
    EdgeSet,
    OrientedSP,
    RandomSpParams,
    SemiorientedSP,
    canonical_code,
    count_oriented,
    count_semioriented,
    count_total,
    iter_oriented_near,
    iter_oriented_spanning,
    iter_semioriented_spanning,
    mirror_pairing,
    near_tree_index,
    oriented_both,
    oriented_spanning,
    parse_sp,
    random_sp,
    reversal_code,
    reversal_index_perm,
    semioriented_spanning,
    serialize_sp,
    spanning_tree_index,
)
from sptrees import generate
from sptrees.cli import run, verify_instance
from sptrees.expr import read_edge_list
from sptrees.generate import (
    _build,
    _ClassPlan,
    _count,
    _invariant_multisets,
    _layout,
    _Plan,
    _starts,
    _streams,
    build_plan,
)
from sptrees.semi import _masks

from conftest import (
    DIAMOND_TEXT,
    THETA_TEXT,
    deep_nest_text,
    mirror_symmetric,
    preorder,
    reference_classes,
    reference_codes,
    reference_invariant_multisets,
    reference_plan,
    small_corpus,
)


# Series and parallel roots, with and without a reversal symmetry; each test
# parses its own tree, so no plan is cached before it starts.
TEXTS = [DIAMOND_TEXT, THETA_TEXT, "e(s,t)"] + [
    serialize_sp(tree)
    for tree in [mirror_symmetric(seed, max_trees=300) for seed in range(6)]
    + small_corpus(4, max_vertices=9)
]


def _results(tree):
    """Every public count, list, stream and index on `tree`."""
    o, s = OrientedSP(tree), SemiorientedSP(tree)
    spanning, near = oriented_both(o)
    return (
        count_oriented(o),
        count_total(o),
        count_semioriented(s),
        spanning,
        near,
        oriented_spanning(o),
        list(iter_oriented_spanning(o)),
        list(iter_oriented_near(o)),
        semioriented_spanning(s),
        list(iter_semioriented_spanning(s)),
        [spanning_tree_index(o, es) for es in spanning],
        [near_tree_index(o, es) for es in near],
    )


def _walk(plan):
    """Every plan and class plan reachable from `plan`."""
    stack = [plan]
    while stack:
        plan = stack.pop()
        yield plan
        if plan.kind == "parallel":
            yield from plan.parts
            stack.extend(cp.rep_plan for cp in plan.parts)
        else:
            stack.extend(plan.parts)


def _replace(plan, **changes):
    """A plan or class plan built with its fields, some of them changed."""
    return type(plan)(*[changes.get(name, getattr(plan, name)) for name in plan.__slots__])


def _astuple(value):
    """A plan or class plan as the nested tuple of its fields, parts too."""
    if isinstance(value, tuple):
        return tuple(map(_astuple, value))
    if isinstance(value, (_Plan, _ClassPlan)):
        return tuple(_astuple(getattr(value, name)) for name in value.__slots__)
    return value


@pytest.mark.parametrize("text", TEXTS)
def test_every_entry_point_builds_the_root_once(text, monkeypatch):
    tree, roots = parse_sp(text), []

    def counted(node):
        if node is tree:
            roots.append(0)
        return _build(node)

    monkeypatch.setattr(generate, "_build", counted)
    results = _results(tree)
    ok, _ = verify_instance(tree, limit=13)
    assert ok
    assert roots == [0]
    assert build_plan(tree) is build_plan(OrientedSP(tree)) is build_plan(SemiorientedSP(tree))
    assert build_plan(tree) == list(_build(tree).by_code.values())[-1]
    assert _results(tree) == results
    assert roots == [0]


@pytest.mark.parametrize("text", TEXTS)
def test_equal_distinct_trees_get_their_own_plans(text):
    tree, copy = parse_sp(text), parse_sp(text)
    assert copy == tree and copy is not tree
    results = _results(tree)
    assert build_plan(copy) is not build_plan(tree)
    assert build_plan(copy) == build_plan(tree) == list(_build(tree).by_code.values())[-1]
    assert _results(copy) == results


def _part_plans(tree, plan):
    """(child, the plan its parent's plan holds for it) per child of `tree`."""
    if plan.kind == "series":
        return list(zip(tree.children, plan.parts))
    return [
        (tree.children[pos], cp.rep_plan)
        for (_, members), cp in zip(reference_classes(tree), plan.parts)
        for pos in members
    ]


def _reversal_perms(tree):
    """`reversal_index_perm` of every mirror pair of the root's children."""
    pairing = mirror_pairing(tree)
    if pairing.kind == "series":
        kids = tree.children
        pairs = list(zip(kids, reversed(kids)))
    else:
        reps = [tree.children[members[0]] for _, members in reference_classes(tree)]
        pairs = [(reps[a], reps[b]) for a, b in pairing.class_pairs]
    kinds = ("spanning", "near")
    return [reversal_index_perm(a, b, kind) for a, b in pairs for kind in kinds]


@pytest.mark.parametrize("seed", range(12))
def test_subtrees_planned_first_do_not_leak_into_the_parent(seed):
    """A subtree's own plan is kept on the subtree; the parent's build makes
    its own plans, equal to those of the subtrees, since plans hold no
    position."""
    text = serialize_sp(mirror_symmetric(seed, max_trees=300))
    tree, fresh = parse_sp(text), parse_sp(text)
    perms = _reversal_perms(tree)  # children planned before their parent
    own = [build_plan(child) for child in tree.children]
    inside = _part_plans(tree, build_plan(tree))
    assert [build_plan(child) for child, _ in inside] == [part for _, part in inside]
    assert not {id(plan) for plan in own} & {id(part) for _, part in inside}
    expected = _results(fresh)  # the parent planned before its children
    assert _reversal_perms(fresh) == perms
    assert _results(tree) == expected
    assert build_plan(tree) == build_plan(fresh) == list(_build(tree).by_code.values())[-1]


@pytest.mark.parametrize("text", TEXTS)
def test_classes_are_sorted_once_per_parallel_shape(text, monkeypatch):
    """The plan pass composes each shape once, its code strings with it, and
    sorts the classes of each P shape once, inside the pass; it keeps both
    in the plan, and indexing, the streams and the semioriented filter of a
    planned tree read them there and build or sort nothing."""
    tree, built, sorts = parse_sp(text), [], []
    compose, sort = generate._compose, generate._classes

    def composed(series, kids):
        plan = compose(series, kids)
        built.append(plan.code)
        return plan

    def counted(groups):
        sorts.append(frozenset((rep.code, size) for rep, size in groups))
        return sort(groups)

    monkeypatch.setattr(generate, "_compose", composed)
    monkeypatch.setattr(generate, "_classes", counted)
    plan = build_plan(tree)
    assert sorted(built) == sorted(_shapes(tree) - {"E"})
    assert len(sorts) == len(set(sorts)) == len([code for code in built if code[0] == "P"])
    built.clear()
    sorts.clear()
    o = OrientedSP(tree)
    spanning, near = (list(stream) for stream in _streams(tree, False, True))
    assert [spanning_tree_index(o, EdgeSet(mask)) for mask in spanning] == list(range(plan.st))
    assert [near_tree_index(o, EdgeSet(mask)) for mask in near] == list(range(plan.nt))
    assert len(list(_masks(tree))) == plan.ss
    assert (canonical_code(tree), reversal_code(tree)) == (plan.code, plan.rev)
    assert built == sorts == []


@pytest.mark.parametrize("text", TEXTS)
def test_no_tree_list_outlives_its_stream(text):
    """After every public enumerator has run to its end, the kept plan holds
    counts and parts only."""
    tree = parse_sp(text)
    plan = build_plan(tree)
    _results(tree)
    assert build_plan(tree) is plan
    for part in _walk(plan):
        for name in part.__slots__:
            value = getattr(part, name)
            assert not isinstance(value, (list, dict, set)), name


@pytest.mark.parametrize("text", TEXTS)
def test_no_node_holds_a_code_or_a_plan(text):
    """After the counts, the enumerations, the indices and the codes, every
    node holds its fields and terminals alone; the plan pass's result is
    kept on the root, beside them.  Nodes are slotted, with no `__dict__`,
    so their filled slots are all they hold."""
    tree = parse_sp(text)
    _results(tree)
    plan = build_plan(tree)
    assert (canonical_code(tree), reversal_code(tree)) == (plan.code, plan.rev)
    for node in preorder(tree):
        assert not hasattr(node, "__dict__")
        slots = {name for cls in type(node).__mro__ for name in getattr(cls, "__slots__", ())}
        held = {name for name in slots - {"__weakref__"} if hasattr(node, name)}
        assert held - {"children", "index", "source", "target"} == (
            {"_plans"} if node is tree else set()
        )
        assert not any(isinstance(getattr(node, name), generate._Plan) for name in held)


@pytest.mark.parametrize("text", TEXTS)
def test_a_tree_and_its_plan_are_freed_without_the_cycle_collector(text):
    """The plan kept on a tree refers to no node, so dropping the tree frees
    both at once, not at some later collection."""
    tree = parse_sp(text)
    _results(tree)
    alive = weakref.ref(tree)
    gc.disable()
    try:
        del tree
        assert alive() is None
    finally:
        gc.enable()


def _probe(m: int) -> str:
    """P(X, e(s,t)), X a series of m blocks, each a P of chains of 1, 2, 3 and
    4 edges: the root's part lists hold X's spanning and near trees."""
    blocks = []
    for i in range(m):
        a, b = "s" if i == 0 else f"c{i}", "t" if i == m - 1 else f"c{i + 1}"
        chains = []
        for k in range(1, 5):
            path = [a] + [f"v{i}_{k}_{j}" for j in range(k - 1)] + [b]
            edges = [f"e({u},{v})" for u, v in zip(path, path[1:])]
            chains.append(edges[0] if k == 1 else "S(" + ",".join(edges) + ")")
        blocks.append("P(" + ",".join(chains) + ")")
    return "P(S(" + ",".join(blocks) + "),e(s,t))"


class _LineCounter:
    """A stdout that keeps no output, so only the program's memory is traced."""

    def __init__(self):
        self.lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def _peak(argv: list[str]) -> tuple[int, int]:
    """Traced peak bytes and output lines of one CLI run."""
    out = _LineCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1], out.lines
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("near", [False, True])
def test_enumerate_frees_each_instance_before_the_next(near, tmp_path):
    """With two copies of an instance in one file, `enumerate` peaks close to
    its one-copy peak: the first copy's lists are gone before the second's
    are built.  Their size is what one-copy `enumerate` holds beyond `count`."""
    text = _probe(2)
    counts = count_oriented(OrientedSP(parse_sp(text)))
    expected = counts.near if near else counts.spanning
    mode = ["--mode", "oriented"] + (["--near"] if near else [])
    one, two = tmp_path / "one.sp", tmp_path / "two.sp"
    one.write_text(text + "\n", encoding="utf-8")
    two.write_text((text + "\n") * 2, encoding="utf-8")
    _peak(["enumerate", str(one), *mode])  # warms the imports and caches
    base, _ = _peak(["count", str(one), *mode])
    peak_one, lines_one = _peak(["enumerate", str(one), *mode])
    peak_two, lines_two = _peak(["enumerate", str(two), *mode])
    assert (lines_one, lines_two) == (expected, 2 * expected)
    assert peak_two - peak_one < (peak_one - base) / 4, (base, peak_one, peak_two)


def _plans(plan) -> dict[int, object]:
    """Every distinct plan object reachable from `plan`, by id."""
    return {id(part): part for part in _walk(plan) if isinstance(part, generate._Plan)}


def _shapes(tree) -> set[str]:
    """The canonical codes of `tree`'s subtrees."""
    return {code for code, _ in reference_codes(tree).values()}


def _check_shared(tree):
    plan = build_plan(tree)
    assert plan == reference_plan(tree)
    assert len(_plans(plan)) == len(_shapes(tree))
    # The kept plans: one per shape, by code, each after its parts, the root last.
    plans, seen = generate._plans(tree).by_code, set()
    assert set(plans) == _shapes(tree) and list(plans.values())[-1] is plan
    for code, shape in plans.items():
        assert shape.code == code
        assert all(id(getattr(part, "rep_plan", part)) in seen for part in shape.parts)
        seen.add(id(shape))


@pytest.mark.parametrize("seed", range(60))
def test_shared_plans_equal_the_per_position_reference(seed):
    """Every count field and part of the shared plan equals the one built
    afresh per node, and there is one plan per distinct shape."""
    _check_shared(mirror_symmetric(seed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 5))
def test_shared_plans_equal_the_reference_on_random_draws(seed, depth):
    _check_shared(random_sp(RandomSpParams(seed=seed, max_depth=depth, max_children=4)))


_COUNTS = st.one_of(st.just(0), st.integers(1, 40), st.integers(0, 10**30))


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.tuples(_COUNTS, _COUNTS), min_size=1, max_size=12), near=st.booleans())
def test_starts_are_the_running_sizes_of_the_blocks(counts, near):
    """Block j of a node's list of its flip kind (near for a series node,
    spanning for a parallel one) starts where the blocks before it end: each
    block's size is the product of its parts' counts, read through
    `_layout`, zero counts included (a self-paired class can have no
    reversal-fixed near multiset), and the last start is the list's length."""
    parts = [SimpleNamespace(st=a, nt=b) for a, b in counts]
    plan = SimpleNamespace(kind="series" if near else "parallel", parts=parts)
    blocks = _layout(plan, near, lambda i, kind: _count(parts[i], kind))
    assert _starts(parts, near) == list(itertools.accumulate(map(math.prod, blocks), initial=0))


@pytest.mark.parametrize("text", [
    # S(e,e) swaps its two near trees: a self-paired class with no fixed one,
    # alone, beside a class that has one, and beside another with none.
    "P(e(s,t),S(e(s,a),e(a,t)))",
    "P(e(s,t),S(e(s,a),e(a,t)),S(e(s,b),e(b,c),e(c,t)))",
    "P(S(e(s,a),e(a,t)),S(e(s,b),e(b,c),e(c,d),e(d,t)))",
    # Two members of it: the one fixed near multiset, and no fixed spanning one.
    "P(e(s,t),S(e(s,a),e(a,t)),S(e(s,b),e(b,t)))",
    # A series middle with no fixed spanning tree.
    "S(e(s,x),P(S(e(x,a),e(a,y)),S(e(x,b),e(b,c),e(c,d),e(d,y))),e(y,t))",
])
def test_self_paired_parts_with_no_fixed_near_tree(text):
    """The reversal-fixed terms where a self-paired part fixes no near tree
    (or no spanning one): the plan equals the reference and the oracle."""
    tree = parse_sp(text)
    _check_shared(tree)
    assert verify_instance(tree, limit=13)[0]


@settings(max_examples=300, deadline=None)
@given(fixed=st.integers(0, 30), swapped=st.integers(0, 30), size=st.integers(0, 40))
@example(fixed=0, swapped=3, size=6)
@example(fixed=0, swapped=3, size=7)
@example(fixed=4, swapped=0, size=9)
@example(fixed=0, swapped=0, size=0)
@example(fixed=2, swapped=5, size=0)
@example(fixed=3, swapped=2, size=1)
def test_invariant_multisets_equal_the_binomial_sum(fixed, swapped, size):
    """The ratio-updated terms equal fresh binomials, with no fixed item,
    no swapped pair, or neither, and at sizes 0 and 1, answered directly."""
    assert _invariant_multisets(fixed, swapped, size) == reference_invariant_multisets(
        fixed, swapped, size
    )


def _ladder(rungs: int):
    """The 2 x L ladder a_i b_i as an edge list, terminals a0 b0."""
    a, b = [f"a{i}" for i in range(rungs)], [f"b{i}" for i in range(rungs)]
    edges = list(zip(a, b)) + list(zip(a, a[1:])) + list(zip(b, b[1:]))
    return read_edge_list("terminals a0 b0\n" + "\n".join(f"{u} {v}" for u, v in edges))


@pytest.mark.parametrize("rungs", range(2, 41))
def test_ladders_count_in_closed_form(rungs):
    """A ladder of L rungs has t_L spanning trees (t_L = 4 t_{L-1} - t_{L-2},
    t_1 = 1, t_2 = 4), all nonequivalent, and (t_L + L) / 2 up to the row
    swap, which fixes exactly L of them.  Every inner node is a new
    reversal-symmetric shape, so the fixed terms compose at every level."""
    before, t = 1, 4
    for _ in range(rungs - 2):
        before, t = t, 4 * t - before
    tree = _ladder(rungs)
    assert count_total(OrientedSP(tree)).spanning == count_oriented(OrientedSP(tree)).spanning == t
    assert count_semioriented(SemiorientedSP(tree)) == (t + rungs) // 2
    if rungs <= 6:
        assert verify_instance(tree, limit=13)[0]


@pytest.mark.parametrize("k", [1, 2, 3, 50, 400])
def test_a_triangle_chain_shares_its_plans(k):
    """An S-chain of k triangles has a handful of plans whatever k, and its
    first and last triangles share one."""
    triangles = [f"P(e(v{i},v{i + 1}),S(e(v{i},a{i}),e(a{i},v{i + 1})))" for i in range(k)]
    tree = parse_sp(triangles[0] if k == 1 else "S(" + ",".join(triangles) + ")")
    plan = build_plan(tree)
    assert len(_plans(plan)) <= 6
    if k > 1:
        assert plan.parts[0] is plan.parts[-1]
    assert count_total(OrientedSP(tree)).spanning == 3**k


def test_plans_compare_and_print_without_recursion():
    """A plan's `==` and `repr` read its parts by an explicit stack, so the
    plans of a 2000-level nest compare and print; small plans compare as
    their fields do, parts included, as dataclass `==` compared them."""
    deep, again = (build_plan(parse_sp(deep_nest_text(2000))) for _ in range(2))
    other = build_plan(parse_sp(deep_nest_text(2001)))
    assert deep is not again and deep == again and deep != other
    assert repr(deep).startswith("_Plan([('series', ") and len(repr(deep)) > 2000
    plans = [build_plan(parse_sp(text)) for text in TEXTS for _ in range(2)]
    # Each plan with parts also comes with its last part's spanning count off
    # by one, a plan equal to it but for a field below the root.
    plans += [
        _replace(plan, parts=plan.parts[:-1] + (
            _replace(plan.parts[-1], st=plan.parts[-1].st + 1),))
        for plan in plans if plan.parts
    ]
    for a in plans:
        for b in plans:
            assert (a == b) == (_astuple(a) == _astuple(b))
