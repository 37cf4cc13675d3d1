"""Domain types, validation, normalization, and edge-set classification."""

import copy
import itertools
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sptrees
from sptrees import (
    EdgeSet,
    InvalidTreeError,
    RandomSpParams,
    normalize,
    parse_sp,
    random_sp,
    underlying_graph,
    validate,
)
from sptrees import core
from sptrees.core import Leaf, Parallel, Series, edge, iter_leaves, parallel, series

from conftest import (
    DIAMOND_TEXT,
    Classification,
    assert_acceptor_agrees,
    classify_edge_set,
    deep_nest_text,
    feed_raw,
    raw_tree,
    within,
)


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
    assert es == 0b101001 and es.bit_count() == 3
    assert es.indices() == (0, 3, 5)
    assert es >> 3 & 1 and not es >> 1 & 1
    assert within(es, 6) and not within(es, 5)
    assert EdgeSet(es | EdgeSet.of([1])).indices() == (0, 1, 3, 5)
    assert es.mapped({0: 2, 3: 0, 5: 7}).indices() == (0, 2, 7)


NEGATIVE_MASK_CALLS = [
    "EdgeSet(-1).indices()",
    "EdgeSet(-3).mapped({0: 0})",
    "core.mask_image(-2, {0: 0})",
    "oracle.apply_permutation(g, {v: v for v in g.vertices}, EdgeSet(-1))",
    # A mask of 6021 digits, past the interpreter's int-to-str limit.
    "sys.set_int_max_str_digits(640); EdgeSet(-(1 << 20000)).indices()",
]


@pytest.mark.parametrize("call", NEGATIVE_MASK_CALLS)
def test_a_negative_mask_is_refused_at_once(call):
    """A negative mask has no finite set of bits: each edge-set helper
    raises the bit walk's own ValueError, with no number in the message,
    instead of walking forever or reading a leaf map past its end.  Each
    call runs in a child under a timeout, so a walk that never ends fails
    the test and does not hang the suite."""
    if "set_int_max_str_digits" in call and not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str limit before Python 3.11")
    src = Path(sptrees.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from sptrees import EdgeSet, core, oracle, parse_sp, underlying_graph\n"
        f"g = underlying_graph(parse_sp({DIAMOND_TEXT!r}))\n"
        f"try:\n    {call}\n"
        "except Exception as exc:\n    print(type(exc).__name__, exc)\n"
    )
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert child.stdout.strip() == "ValueError negative edge mask"


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
    # One graph type read by two terminal keys: the kinds never compare
    # equal, either way round, and print and pickle as before.
    for x, y in ((OrientedSP(a), SemiorientedSP(a)), (SemiorientedSP(a), OrientedSP(a))):
        assert x != y and not x == y
        assert pickle.loads(pickle.dumps(x)) == x
    assert repr(OrientedSP(a)) == f"OrientedSP(tree={a!r})"
    assert repr(SemiorientedSP(a)) == f"SemiorientedSP(tree={a!r})"


def test_validate_reports_paths():
    tree = parallel(
        edge("s", "t"),
        series(edge("s", "a"), edge("a", "a"), edge("a", "t")),
    )
    report = validate(tree)
    assert any(v.path.startswith("root[1]") for v in report)


def test_sharing_under_coinciding_terminals_is_still_reported():
    """Two (s, s) branches sharing v overlap by 2(k-1) vertex slots, as
    disjoint (s, t) branches would; the clash on v is still found."""
    loop = [series(edge("s", "v", 2 * i), edge("v", "s", 2 * i + 1)) for i in range(2)]
    assert [str(v) for v in validate(parallel(*loop))] == [
        "root[0]: series terminals coincide",
        "root[0]: children 0 and 1 share vertices ['s'] beyond the chain terminal",
        "root[1]: series terminals coincide",
        "root[1]: children 0 and 1 share vertices ['s'] beyond the chain terminal",
        "root: children 0 and 1 share interior vertices ['v']",
    ]


def test_sharing_beside_a_one_child_node_is_still_reported():
    """A one-child node's vertices are not collected, so its siblings'
    shared vertices can add up to the expected joints; the clash on a and f
    is still found."""
    tree = series(
        edge("a", "f", 0),
        parallel(edge("f", "b", 1)),
        parallel(edge("b", "a", 2), series(edge("b", "f", 3), edge("f", "a", 4))),
    )
    assert [str(v) for v in validate(tree)] == [
        "root[1]: parallel node needs at least 2 children",
        "root: series terminals coincide",
        "root: children 0 and 2 share vertices ['a', 'f'] beyond the chain terminal",
    ]


def _sharing_faults(tree) -> set[str]:
    """Paths of the inner nodes where two children share a vertex the rules
    do not allow, by brute force over every pair of children."""
    faults, stack = set(), [(tree, "root")]
    while stack:
        node, path = stack.pop()
        kids = node.children
        sets = [{v for lf in iter_leaves(kid) for v in (lf.source, lf.target)} for kid in kids]
        for i, j in itertools.combinations(range(len(kids)), 2):
            for v in sets[i] & sets[j]:
                if isinstance(node, Series):
                    allowed = j == i + 1 and v == kids[i].target
                else:
                    allowed = v in (kids[0].source, kids[0].target)
                if not allowed:
                    faults.add(path)
        stack.extend((kid, f"{path}[{i}]") for i, kid in enumerate(kids) if kid.children)
    return faults


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(2, 5), edits=st.integers(0, 2))
def test_sibling_sharing_is_reported_where_brute_force_finds_it(seed, depth, edits):
    """Valid trees with up to two leaf endpoints renamed: the nodes with a
    sharing violation are those where some pair of children shares a vertex
    beyond the rules, whether or not the vertex counts add up."""
    tree = random_sp(RandomSpParams(seed=seed, max_depth=depth, max_children=4))
    rng = random.Random(seed)
    leaves = list(iter_leaves(tree))
    labels = sorted({v for lf in leaves for v in (lf.source, lf.target)})
    renamed = {(rng.randrange(len(leaves)), rng.randrange(2)): rng.choice(labels)
               for _ in range(edits)}

    def copy(node):
        if isinstance(node, Leaf):
            ends = [renamed.get((node.index, side), end)
                    for side, end in enumerate((node.source, node.target))]
            return Leaf(*ends, node.index)
        return type(node)(tuple(map(copy, node.children)))

    broken = copy(tree)
    reported = {v.path for v in validate(broken) if "share" in v.message}
    assert reported == _sharing_faults(broken)


def _nodes(raw: list) -> tuple[list[list], list[list]]:
    """The S and P nodes and the leaves of a `raw_tree`."""
    inner, leaves, stack = [], [], [raw]
    while stack:
        item = stack.pop()
        if item[0] == "e":
            leaves.append(item)
        else:
            inner.append(item)
            stack.extend(item[1])
    return inner, leaves


def _ends(raw: list) -> tuple[str, str]:
    return (raw[1], raw[2]) if raw[0] == "e" else (raw[2], raw[3])


def _rename(raw: list, names: dict) -> None:
    """Rename leaf endpoints under `raw` in place."""
    for leaf in _nodes(raw)[1]:
        leaf[1:] = [names.get(v, v) for v in leaf[1:]]


def _corrupt(raw: list, kind: str, rng: random.Random) -> None:
    """Apply one seeded corruption to a `raw_tree` in place."""
    inner, leaves = _nodes(raw)
    ss = [node for node in inner if node[0] is Series]
    ps = [node for node in inner if node[0] is Parallel]
    if kind == "rename interior":
        labels = sorted({v for leaf in leaves for v in leaf[1:]})
        interior = [v for v in labels if v not in _ends(raw)]
        if interior:
            x = rng.choice(interior)
            _rename(raw, {x: rng.choice([v for v in labels if v != x])})
    elif kind == "swap parallel child" and ps:
        p = rng.choice(ps)
        _rename(rng.choice(p[1]), {p[2]: p[3], p[3]: p[2]})
    elif kind == "series terminals meet" and ss:
        s = rng.choice(ss)
        _rename(s, {s[3]: s[2]})
    elif kind == "second bare edge" and ps:
        p = rng.choice(ps)
        while sum(kid[0] == "e" for kid in p[1]) < 2:
            p[1].insert(rng.randrange(len(p[1]) + 1), ["e", p[2], p[3]])
    elif kind == "one-child node":
        parent = rng.choice([[None, [raw]]] + inner)
        i = rng.randrange(len(parent[1]))
        child = list(parent[1][i])  # a copy, so the root can wrap itself
        parent[1][i] = [rng.choice((Series, Parallel)), [child], *_ends(child)]
        if parent[0] is None:
            raw[:] = parent[1][0]
    elif kind == "nested under own kind" and any(len(node[1]) > 1 for node in inner):
        node = rng.choice([node for node in inner if len(node[1]) > 1])
        i = rng.randrange(len(node[1]) - 1)
        j = rng.randrange(i + 2, len(node[1]) + 1)
        run = node[1][i:j]
        ends = (_ends(run[0])[0], _ends(run[-1])[1]) if node[0] is Series else node[2:]
        node[1][i:j] = [[node[0], run, *ends]]
    elif kind == "self-loop":
        leaf = rng.choice(leaves)
        leaf[2] = leaf[1]


CORRUPTIONS = ("rename interior", "swap parallel child", "series terminals meet",
               "second bare edge", "one-child node", "nested under own kind", "self-loop")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(0, 5), edits=st.integers(0, 2))
def test_acceptor_agrees_with_the_builder(seed, depth, edits):
    """A valid draw, each corruption alone and `edits` corruptions at once:
    the acceptor accepts exactly what the checker finds no violation in,
    and builds the reference tree."""
    tree = random_sp(RandomSpParams(seed=seed, max_depth=depth, max_children=4))
    rng = random.Random(seed)
    assert assert_acceptor_agrees(lambda build: feed_raw(raw_tree(tree), build))
    for kinds in [[kind] for kind in CORRUPTIONS] + [rng.choices(CORRUPTIONS, k=edits)]:
        raw = raw_tree(tree)
        for kind in kinds:
            _corrupt(raw, kind, rng)
        assert_acceptor_agrees(lambda build: feed_raw(raw, build))


def test_nodes_are_slotted_frozen_and_compare_by_their_fields():
    """Leaves and S and P nodes are slotted, with no `__dict__`; no field
    can be assigned or deleted; `==`, `hash`, `repr`, pickling and copying
    behave as they did for frozen dataclasses; an inner node's terminals
    are set when it is built."""
    kids = (Leaf("s", "a", 0), Leaf("a", "t", 1))
    s = Series(kids)
    p = Parallel((Leaf("s", "t", 2), s))
    for node in (kids[0], s, p):
        assert not hasattr(node, "__dict__")
        for name in ("source", "target", "children", "_plans"):
            with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
                setattr(node, name, "x")
        with pytest.raises(FrozenInstanceError, match="cannot delete field"):
            del node.source
        assert pickle.loads(pickle.dumps(node)) == copy.deepcopy(node) == node
    assert (s.source, s.target, p.source, p.target) == ("s", "t", "s", "t")
    assert repr(s) == (
        "Series(children=(Leaf(source='s', target='a', index=0), "
        "Leaf(source='a', target='t', index=1)))"
    )
    assert hash(kids[0]) == hash(("s", "a", 0)) and hash(s) == hash((kids,))
    assert s == Series(kids) and s != Parallel(kids) and Leaf("s", "t") == Leaf("s", "t", 0)
    assert Leaf("s", "t", 0) != Leaf("s", "t", 1) and kids[0].children == ()
    assert Series(()).children == ()


def test_deep_trees_compare_hash_and_copy_at_any_depth():
    """A 3000-level nest, past the default recursion limit: `==` reads node
    pairs off a stack, `hash` builds children first with the values a
    frozen dataclass gives, and a copy, shallow or deep, is the tree itself."""
    text = deep_nest_text(3000)
    a, b, renamed = parse_sp(text), parse_sp(text), parse_sp(text.replace("x", "y"))
    assert a is not b and a == b and not a != b
    assert a != renamed and not a == renamed
    assert hash(a) == hash(b) == hash((a.children,))
    assert len({a, b}) == 1
    assert copy.deepcopy(a) is a and copy.copy(a) is a


def _reference_repr(tree) -> str:
    """The frozen dataclasses' text of a tree, by an explicit stack."""
    out, stack = [], [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(f"Leaf(source={item.source!r}, target={item.target!r}, index={item.index!r})")
        else:
            kids = item.children
            out.append(f"{type(item).__name__}(children=(")
            stack.append(",))" if len(kids) == 1 else "))")
            for i in range(len(kids) - 1, -1, -1):
                stack.append(kids[i])
                if i:
                    stack.append(", ")
    return "".join(out)


def test_deep_trees_print_and_pickle_at_any_depth():
    """A 3000-level nest: `repr` gives the frozen dataclasses' text and a
    pickle round trip gives an equal tree, with no recursion at any depth."""
    tree = parse_sp(deep_nest_text(3000))
    assert repr(tree) == _reference_repr(tree)
    assert pickle.loads(pickle.dumps(tree)) == tree
    small = (Series((Leaf("s", "t", 0),)), Parallel(()), Leaf("s", "t", 4))
    for node in small:
        assert repr(node) == _reference_repr(node)
        assert pickle.loads(pickle.dumps(node)) == node


def test_an_inner_node_with_no_children_is_reported():
    """A node with no children, which only code can build, has None
    terminals, so both the checker and the acceptor read it as any other
    node: its arity is reported among the violations."""
    tree = Series((Leaf("a", "b", 0), Parallel(()), Leaf("b", "c", 1)))
    arity = "root[1]: parallel node needs at least 2 children"
    assert (tree.children[1].source, tree.children[1].target) == (None, None)
    assert arity in map(str, validate(tree))
    with pytest.raises(InvalidTreeError) as err:
        normalize(tree)
    assert arity in map(str, err.value.violations)


def test_a_rejection_the_checker_finds_no_violation_in_is_an_internal_error(monkeypatch):
    """`normalize` returns the acceptor's tree; if the acceptor rejects a
    tree in which the checker finds no violation, the two disagree."""
    tree = series(edge("a", "b"), edge("b", "c"))
    monkeypatch.setattr(core.TreeAcceptor, "finish", lambda self: None)
    with pytest.raises(RuntimeError, match="no violation"):
        normalize(tree)
