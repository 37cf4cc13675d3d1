"""Shared instance builders and oracle helpers for the test suite."""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from enum import Enum
from functools import cache, partial
from itertools import compress, product, repeat

import pytest

from sptrees import (
    EdgeSet,
    OrientedSP,
    RandomSpParams,
    SemiorientedSP,
    all_near_trees,
    all_spanning_trees,
    automorphisms,
    burnside_count,
    count_oriented,
    count_semioriented,
    iso_map,
    orbit_partition,
    parse_sp,
    random_sp,
    underlying_graph,
)
from sptrees.cli import verify_instance
from sptrees.core import (
    Leaf,
    Node,
    Parallel,
    Series,
    TreeAcceptor,
    TreeChecker,
    iter_leaves,
    mask_image,
    normalize,
    validate,
)
from sptrees.generate import (
    ImageNotFound,
    _ClassPlan,
    _index,
    _Plan,
    _placed,
    _plans,
    _root,
    _streams,
    _unrank,
    build_plan,
    multiset_coefficient,
    multiset_enumerate,
    multiset_rank,
)
from sptrees.oracle import FixBoth, FixSet, NonIntegralResult, OrbitReport
from sptrees.semi import _masks, _parts, _reversal_perms, _selectors

DIAMOND_TEXT = "P(e(2,3),S(e(2,1),e(1,3)),S(e(2,4),e(4,3)))"
THETA_TEXT = "P(e(s,t),S(e(s,a),e(a,b),e(b,t)),S(e(s,c),e(c,d),e(d,t)))"


@pytest.fixture
def diamond() -> Node:
    return parse_sp(DIAMOND_TEXT)


@pytest.fixture
def theta() -> Node:
    return parse_sp(THETA_TEXT)


def chain(k: int) -> Node:
    """Series chain of k edges through v0, v1, ..., vk."""
    if k == 1:
        return parse_sp("e(v0,v1)")
    return parse_sp("S(" + ",".join(f"e(v{i},v{i + 1})" for i in range(k)) + ")")


def deep_nest_text(depth: int) -> str:
    """S(e(s,v0),P(e(v0,t),S(e(v0,v1),P(...)))), alternating S and P levels."""
    heads, closers = [], []
    source = "s"
    for level in range(depth):
        if level % 2 == 0:
            heads.append(f"S(e({source},v{level}),")
            source = f"v{level}"
        else:
            heads.append(f"P(e({source},t),")
        closers.append(")")
    heads.append(f"S(e({source},x),e(x,t))")
    return "".join(heads) + "".join(closers)


def twin_nest_text(depth: int) -> str:
    """P(A, A'): A the `deep_nest_text(depth)` nest, A' a copy of it with
    every inner vertex renamed, so the two branches share a shape."""
    nest = deep_nest_text(depth)
    return f"P({nest},{nest.replace('v', 'w').replace('x', 'y')})"


def deep_nest_codes(depth: int) -> tuple[str, str]:
    """Canonical and reversal code of `deep_nest_text(depth)` for an even
    depth (an odd one ends in S(e,S(e,e)), which normalizes flat), built
    innermost first.  A P level's S child sorts before its edge."""
    assert depth % 2 == 0
    code = rev = "S(EE)"
    for level in reversed(range(depth)):
        if level % 2 == 0:
            code, rev = f"S(E{code})", f"S({rev}E)"
        else:
            code, rev = f"P({code}E)", f"P({rev}E)"
    return code, rev


# Token order S < P < E < ( < ) as the natural order of translated strings.
_TOKEN_ORDER = str.maketrans("SPE()", "ABCDE")


def _by_tokens(code: str) -> str:
    return code.translate(_TOKEN_ORDER)


def reference_codes(tree: Node) -> dict[int, tuple[str, str]]:
    """(canonical code, reversal code) of every node of `tree` by id(node),
    by the string rule written out, children first off an explicit stack:
    a leaf is "E", a series node wraps its children's codes in "S(...)" in
    chain order (reversed for the reversal code), and a P node wraps them
    in "P(...)" sorted by token order.  The plan pass must build the same
    strings."""
    codes, stack = {}, [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Leaf):
            codes[id(node)] = ("E", "E")
        elif not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
        else:
            kids = [codes[id(child)] for child in node.children]
            if isinstance(node, Series):
                code = "S(" + "".join(c for c, _ in kids) + ")"
                rev = "S(" + "".join(r for _, r in reversed(kids)) + ")"
            else:
                sides = (sorted(side, key=_by_tokens) for side in zip(*kids))
                code, rev = ("P(" + "".join(side) + ")" for side in sides)
            codes[id(node)] = (code, rev)
    return codes


def reference_code(node: Node) -> tuple[str, str]:
    """`reference_codes` of `node` itself."""
    return reference_codes(node)[id(node)]


def reference_classes(node: Node, codes: dict | None = None) -> list[tuple[str, list[int]]]:
    """A P node's classes (children of one code, by `codes`, by default
    `reference_codes(node)`) as (code, member positions in storage order),
    by descending code: the class order of the plans."""
    codes = codes or reference_codes(node)
    buckets: dict[str, list[int]] = {}
    for pos, child in enumerate(node.children):
        buckets.setdefault(codes[id(child)][0], []).append(pos)
    return sorted(buckets.items(), key=lambda item: _by_tokens(item[0]), reverse=True)


def raw_tree(node: Node) -> list:
    """A mutable copy of a tree built in code: ["e", u, v] per leaf and
    [kind, children, source, target] per S or P node."""
    if isinstance(node, Leaf):
        return ["e", node.source, node.target]
    return [type(node), [raw_tree(kid) for kid in node.children], node.source, node.target]


def feed_raw(raw: list, build):
    """`build` after the leaf, open and close events of a `raw_tree`."""
    stack = [raw]
    while stack:
        item = stack.pop()
        if item is None:
            build.close()
        elif item[0] == "e":
            build.leaf(item[1], item[2])
        else:
            build.open(item[0])
            stack.append(None)
            stack.extend(reversed(item[1]))
    return build


def preorder(node: Node) -> list[Node]:
    """Every node under `node`, leaves included, in preorder, by an explicit stack."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def reference_decompose_edge_list(edges, s: str, t: str) -> Node:
    """The edge-list reducer with binary fragments, the reference for
    `expr.decompose_edge_list`: each contraction makes a two-part S
    fragment (id, a, b, Series, (first, second)), the older fragment
    first, and each merge a two-part P fragment (id, u, v, Parallel, (old,
    new)).  The nested same-kind fragments are read from s into a
    `ReferenceTree`, which joins each run into one node, and the tree is
    checked valid.  It raises what the reducer raises, with the same
    messages."""
    from sptrees.expr import DisconnectedInput, NotSeriesParallel
    from sptrees.core import is_valid_label

    adj, ids = {}, itertools.count()
    for u, v in edges:
        if not is_valid_label(u) or not is_valid_label(v):
            raise ValueError(f"bad vertex label in edge ({u!r}, {v!r})")
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if v in adj.get(u, ()):
            raise ValueError(f"duplicate edge {u}-{v}")
        adj.setdefault(u, {})[v] = adj.setdefault(v, {})[u] = (next(ids), u, v, Leaf, ())
    if s == t:
        raise ValueError("terminals must be distinct")
    if s not in adj or t not in adj:
        raise ValueError("terminals must appear in the edge list")
    seen, stack = {s}, [s]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(adj):
        raise DisconnectedInput("input edge list is not connected")
    fragments = sum(map(len, adj.values())) // 2
    ready = sorted(x for x, around in adj.items() if len(around) == 2 and x not in (s, t))
    while fragments > 1:
        if not ready:
            raise NotSeriesParallel(
                "reduction is stuck: graph is not series-parallel for these terminals"
            )
        x = heapq.heappop(ready)
        if len(adj[x]) != 2:
            continue
        (a, first), (b, second) = adj.pop(x).items()
        if first[0] > second[0]:
            (a, first), (b, second) = (b, second), (a, first)
        del adj[a][x], adj[b][x]
        merged = (next(ids), a, b, Series, (first, second))
        fragments -= 1
        old = adj[a].get(b)
        if old is not None:
            merged = (next(ids), old[1], old[2], Parallel, (old, merged))
            fragments -= 1
        adj[a][b] = adj[b][a] = merged
        if old is not None:
            for y in (a, b):
                if len(adj[y]) == 2 and y not in (s, t):
                    heapq.heappush(ready, y)
    build, stack = ReferenceTree(), [(adj[s][t], s)]
    while stack:
        item = stack.pop()
        if item is None:
            build.close()
            continue
        (_, u, v, kind, parts), start = item
        if kind is Leaf:
            build.leaf(*((u, v) if start == u else (v, u)))
            continue
        build.open(kind)
        stack.append(None)
        reads = []
        for part in parts if kind is Parallel or start == u else parts[::-1]:
            reads.append((part, start))
            if kind is Series:
                start = part[2] if start == part[1] else part[1]
        stack.extend(reversed(reads))
    tree = build.tree
    assert validate(tree) == []
    return tree


class ReferenceTree:
    """The tree of a leaf/open/close event stream, built with no check:
    an `open` of the enclosing node's kind shares that node's child list,
    so a same-kind run becomes one node, and leaves are numbered in
    preorder.  The reference for the trees `TreeAcceptor` builds."""

    def __init__(self) -> None:
        self.leaves = 0
        # Per open node, the root's holder first: [kind, child list].
        self.frames: list[list] = [[None, []]]

    def leaf(self, u: str, v: str) -> None:
        self.frames[-1][1].append(Leaf(u, v, self.leaves))
        self.leaves += 1

    def open(self, kind: type) -> None:
        kind_above, kids = self.frames[-1]
        self.frames.append([kind, kids if kind is kind_above else []])

    def close(self) -> None:
        kind, kids = self.frames.pop()
        if kids is not self.frames[-1][1]:
            self.frames[-1][1].append(kind(tuple(kids)))

    @property
    def tree(self) -> Node:
        return self.frames[0][1][0]


def assert_acceptor_agrees(feed) -> bool:
    """`feed(build)` drives one event stream into `build` and returns it.
    A `TreeAcceptor` accepts the stream exactly when a `TreeChecker`
    records no violation, and then returns the `ReferenceTree`: the same
    leaf indices and the same terminals, set at construction, on every
    node.  Returns whether the stream was accepted."""
    broken = feed(TreeChecker()).broken
    got = feed(TreeAcceptor()).finish()
    if broken:
        assert got is None, [message for _, message in broken]
        return False
    assert got is not None, "the acceptor rejected a tree the checker accepts"
    reference = feed(ReferenceTree())
    want = reference.tree
    assert got == want
    ends = ("source", "target", "index")
    for a, b in zip(preorder(got), preorder(want), strict=True):
        assert type(a) is type(b)
        assert [getattr(a, k, None) for k in ends] == [getattr(b, k, None) for k in ends]
    assert [lf.index for lf in iter_leaves(got)] == list(range(reference.leaves))
    return True


# Binary digits of a mask as 0/1 bytes, for `itertools.compress`.
_BITS = bytes.maketrans(b"01", b"\0\1")


def reference_lines(tokens: list[str], masks, sep: str):
    """`cli._lines` by one selector byte per edge: a mask's binary digits,
    most significant first, select `tokens` in order."""
    digits = map(str.encode, map(format, masks, repeat(f"0{len(tokens)}b")))
    chosen = map(compress, repeat(tokens), map(bytes.translate, digits, repeat(_BITS)))
    return map(sep.join, chosen)


def small_corpus(count: int, max_vertices: int = 10, start_seed: int = 0):
    """Deterministic random instances with at most `max_vertices` vertices."""
    out = []
    seed = start_seed
    while len(out) < count:
        tree = random_sp(
            RandomSpParams(seed=seed, max_depth=3, max_children=3, leaf_bias=0.45)
        )
        seed += 1
        if underlying_graph(tree).n <= max_vertices:
            out.append(tree)
    return out


def orbit_exactly_once(fast: list[EdgeSet], report) -> bool:
    """True iff `fast` hits every orbit of `report` exactly once."""
    lookup = {}
    for orbit_id, (_, members) in enumerate(report.orbits):
        for member in members:
            lookup[member] = orbit_id
    hit = set()
    for es in fast:
        orbit_id = lookup.get(es)
        if orbit_id is None or orbit_id in hit:
            return False
        hit.add(orbit_id)
    return len(hit) == report.orbit_count


# ---------------------------------------------------------------------------
# Every simple oriented SP shape with m edges
# ---------------------------------------------------------------------------


@cache
def _rooted(m: int, kind: str) -> tuple:
    """Every shape with m >= 2 edges whose root is a `kind` node, up to
    isomorphism, as (kind, parts); a part is "E" for an edge or such a pair.
    An S shape is an ordered sequence of at least two non-S shapes; a P shape
    is a multiset of at least two non-P shapes with at most one bare edge."""
    parts = _runs(m) if kind == "S" else _bags(m, 0, _pool(m))
    return tuple((kind, p) for p in parts if len(p) >= 2)


def _unrooted(m: int, kind: str) -> tuple:
    """Every shape with m edges whose root is not a `kind` node."""
    return ("E",) if m == 1 else _rooted(m, "P" if kind == "S" else "S")


@cache
def _runs(m: int) -> list[tuple]:
    """The ordered sequences of non-S shapes with m edges in all."""
    runs = [(x,) for x in _unrooted(m, "S")]
    for k in range(1, m):
        runs += [(x,) + rest for x in _unrooted(k, "S") for rest in _runs(m - k)]
    return runs


@cache
def _pool(m: int) -> tuple:
    """The non-P shapes of fewer than m edges as (edges, shape), by size:
    the bare edge first."""
    return tuple((k, x) for k in range(1, m) for x in _unrooted(k, "P"))


def _bags(m: int, start: int, pool: tuple) -> list[tuple]:
    """The multisets of `pool[start:]` with m edges in all, each in pool
    order; the bare edge, pool[0], at most once."""
    if m == 0:
        return [()]
    bags = []
    for i in range(start, len(pool)):
        k, x = pool[i]
        if k <= m:
            bags += [(x,) + rest for rest in _bags(m - k, max(i, 1), pool)]
    return bags


def sp_shapes(m: int) -> list[str]:
    """An SP expression of every simple oriented SP shape with m edges, once
    each, between s and t with inner vertices v1, v2, ..."""
    shapes = ("E",) if m == 1 else _rooted(m, "S") + _rooted(m, "P")
    return list(map(_shape_text, shapes))


def _shape_text(shape) -> str:
    labels = (f"v{i}" for i in itertools.count(1))

    def text(shape, u: str, v: str) -> str:
        if shape == "E":
            return f"e({u},{v})"
        kind, parts = shape
        if kind == "P":
            ends = [(u, v)] * len(parts)
        else:
            cuts = [u] + [next(labels) for _ in parts[1:]] + [v]
            ends = list(zip(cuts, cuts[1:]))
        return f"{kind}(" + ",".join(text(p, a, b) for p, (a, b) in zip(parts, ends)) + ")"

    return text(shape, "s", "t")


def shape_sweep(max_edges: int) -> tuple[int, list[str]]:
    """`verify_instance` on every shape with at most `max_edges` edges: the
    number of shapes, and each failing shape with its summary."""
    texts = [text for m in range(1, max_edges + 1) for text in sp_shapes(m)]
    failures = []
    for text in texts:
        ok, summary = verify_instance(parse_sp(text))
        if not ok:
            failures.append(f"{text}: {summary}")
    return len(texts), failures


def orbit_sweep(max_edges: int) -> tuple[int, list[str]]:
    """The public orbit folds on every shape with at most `max_edges`
    edges: under Aut_or, `orbit_partition` and `burnside_count` of the
    spanning and of the near trees give `count_oriented`'s pair, and under
    Aut_semi those of the spanning trees give `count_semioriented`.  Returns
    the number of shapes, and each failing shape with its (partition,
    Burnside) counts and the fast counts."""
    texts = [text for m in range(1, max_edges + 1) for text in sp_shapes(m)]
    failures = []
    for text in texts:
        tree = parse_sp(text)
        g = underlying_graph(tree)
        s, t = tree.source, tree.target
        spanning, near = all_spanning_trees(g), all_near_trees(g, s, t)
        aut_or, aut_semi = automorphisms(g, FixBoth(s, t)), automorphisms(g, FixSet(s, t))
        counts = count_oriented(tree)
        want = [counts.spanning, counts.near, count_semioriented(tree)]
        got = [
            (orbit_partition(trees, autos, g).orbit_count, burnside_count(trees, autos, g))
            for trees, autos in ((spanning, aut_or), (near, aut_or), (spanning, aut_semi))
        ]
        if got != [(w, w) for w in want]:
            failures.append(f"{text}: {got} against {want}")
    return len(texts), failures


def shape_index_sweep(max_edges: int) -> tuple[int, int]:
    """On every shape with at most `max_edges` edges: the oriented spanning,
    oriented near and semioriented streams hold the plan's st, nt and ss
    masks, neither oriented stream repeats a mask, `_index` gives each
    streamed tree its position and `_unrank` gives each position its
    streamed tree.  Returns the number of shapes and of indexed trees."""
    shapes = indexed = 0
    for m in range(1, max_edges + 1):
        for text in sp_shapes(m):
            tree = parse_sp(text)
            plan, plans = build_plan(tree), _plans(tree)
            spanning, near = map(list, _streams(tree, False, True))
            assert sum(1 for _ in _masks(tree)) == plan.ss
            for masks, count, is_near in ((spanning, plan.st, False), (near, plan.nt, True)):
                assert len(set(masks)) == len(masks) == count
                assert [_index(plans, mask, is_near) for mask in masks] == list(range(count))
                assert [_unrank(plans, i, is_near) for i in range(count)] == masks
                indexed += count
            shapes += 1
    return shapes, indexed


def filter_sweep(max_edges: int) -> int:
    """`assert_filter_matches_the_reference` on every reversal-symmetric
    shape with at most `max_edges` edges; returns the number of them."""
    shapes = 0
    for m in range(1, max_edges + 1):
        for text in sp_shapes(m):
            tree = parse_sp(text)
            plan = build_plan(tree)
            if plan.code == plan.rev:
                assert_filter_matches_the_reference(tree)
                shapes += 1
    return shapes


# ---------------------------------------------------------------------------
# Mirror-symmetric instance generation
# ---------------------------------------------------------------------------


def _allocator():
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"w{counter[0]}"

    return fresh


def _rand_block(rng, fresh, depth, src, tgt, kind):
    k = rng.randint(2, 3)
    if kind == "S":
        mids = [fresh() for _ in range(k - 1)]
        ends = [src] + mids + [tgt]
        kids = []
        for i in range(k):
            a, b = ends[i], ends[i + 1]
            if depth - 1 < 2 or rng.random() < 0.5:
                kids.append(Leaf(a, b))
            else:
                kids.append(_rand_block(rng, fresh, depth - 1, a, b, "P"))
        return Series(tuple(kids))
    kids = []
    for i in range(k):
        if i == 0 and rng.random() < 0.4:
            kids.append(Leaf(src, tgt))
        else:
            kids.append(_rand_block(rng, fresh, depth - 1, src, tgt, "S"))
    return Parallel(tuple(kids))


def reversed_relabeled(node: Node, fresh, src: str, tgt: str) -> Node:
    """Terminal-reversed copy of `node` with fresh interior labels."""
    if isinstance(node, Leaf):
        return Leaf(src, tgt)
    if isinstance(node, Series):
        k = len(node.children)
        ends = [src] + [fresh() for _ in range(k - 1)] + [tgt]
        kids = [
            reversed_relabeled(child, fresh, ends[i], ends[i + 1])
            for i, child in enumerate(reversed(node.children))
        ]
        return Series(tuple(kids))
    return Parallel(tuple(reversed_relabeled(c, fresh, src, tgt) for c in node.children))


def mirror_symmetric(seed: int, max_trees: int = 4000) -> Node:
    """Random instance that admits a terminal-exchanging symmetry.

    Retries derived seeds until the oriented spanning count is small
    enough for enumeration-based checks to stay fast.
    """
    for attempt in range(64):
        tree = _mirror_symmetric_raw(seed * 64 + attempt)
        if count_oriented(OrientedSP(tree)).spanning <= max_trees:
            return tree
    raise AssertionError("no small mirror-symmetric instance found")


def _mirror_symmetric_raw(seed: int) -> Node:
    rng = random.Random(seed)
    fresh = _allocator()
    s, t = "s", "t"
    if rng.random() < 0.5:
        half = rng.randint(1, 2)
        bounds = [s] + [fresh() for _ in range(half)]
        kids = []
        for i in range(half):
            a, b = bounds[i], bounds[i + 1]
            if rng.random() < 0.4:
                kids.append(Leaf(a, b))
            else:
                kids.append(_rand_block(rng, fresh, 2, a, b, "P"))
        middle = []
        join = bounds[-1]
        if rng.random() < 0.5:
            nxt = fresh()
            middle = [Leaf(join, nxt)]
            join = nxt
        ends = [join] + [fresh() for _ in range(half - 1)] + [t]
        right = [
            reversed_relabeled(child, fresh, ends[i], ends[i + 1])
            for i, child in enumerate(reversed(kids))
        ]
        return normalize(Series(tuple(kids + middle + right)))
    kids = []
    if rng.random() < 0.4:
        kids.append(Leaf(s, t))
    for _ in range(rng.randint(1, 2)):
        block = _rand_block(rng, fresh, rng.randint(2, 3), s, t, "S")
        kids.append(block)
        kids.append(reversed_relabeled(block, fresh, s, t))
    return normalize(Parallel(tuple(kids)))


def relabeled_shuffled_copy(tree: Node, seed: int) -> Node:
    """Oriented-isomorphic copy: interior labels renamed, P children shuffled."""
    rng = random.Random(seed)
    interior = sorted(
        v for v in underlying_graph(tree).vertices if v not in (tree.source, tree.target)
    )
    new_names = [f"z{i}" for i in range(len(interior))]
    rng.shuffle(new_names)
    mapping = dict(zip(interior, new_names))
    mapping[tree.source] = tree.source
    mapping[tree.target] = tree.target

    def walk(node: Node) -> Node:
        if isinstance(node, Leaf):
            return Leaf(mapping[node.source], mapping[node.target])
        kids = [walk(c) for c in node.children]
        if isinstance(node, Parallel):
            rng.shuffle(kids)
            return Parallel(tuple(kids))
        return Series(tuple(kids))

    return normalize(walk(tree))


def oriented(tree: Node) -> OrientedSP:
    return OrientedSP(tree)


def semioriented(tree: Node) -> SemiorientedSP:
    return SemiorientedSP(tree)


# ---------------------------------------------------------------------------
# Leaf-map reference for the reversal's index action
# ---------------------------------------------------------------------------


def reverse_tree(node: Node) -> tuple[Node, dict[int, int]]:
    """Terminal-exchanged copy of a normalized tree.

    Returns the reversed tree (freshly preorder-indexed) and the map
    from old leaf indices to new ones.
    """
    leaf_map: dict[int, int] = {}
    counter = [0]

    def build(nd: Node) -> Node:
        if isinstance(nd, Leaf):
            out = Leaf(nd.target, nd.source, counter[0])
            leaf_map[nd.index] = counter[0]
            counter[0] += 1
            return out
        if isinstance(nd, Series):
            return Series(tuple(build(c) for c in reversed(nd.children)))
        return Parallel(tuple(build(c) for c in nd.children))

    return build(node), leaf_map


def reversal_map(x: Node, y: Node) -> dict[int, int] | None:
    """Leaf bijection realizing x == reversed y, or None."""
    if reference_code(x)[0] != reference_code(y)[1]:
        return None
    reversed_y, new_of_old = reverse_tree(y)
    phi = iso_map(x, reversed_y)  # codes agree: the reversed copy's code is y's reversal code
    old_of_new = {new: old for old, new in new_of_old.items()}
    return {leaf: old_of_new[img] for leaf, img in phi.items()}


def series_maps(node: Series) -> tuple[dict[int, int], ...]:
    """`reversal_map` of each series child i onto child k-1-i; the upper
    half inverts the lower, and an odd middle child maps onto itself."""
    kids = node.children
    k = len(kids)
    maps: list[dict[int, int]] = []
    for i in range(k):
        j = k - 1 - i
        if i > j:
            maps.append({b: a for a, b in maps[j].items()})
        else:
            maps.append(reversal_map(kids[i], kids[j]))
    return tuple(maps)


def reference_index_perm(child: Node, mirror: Node, kind: str = "spanning") -> tuple[int, ...]:
    """`reversal_index_perm` by leaf maps: each of `child`'s trees is moved
    through `reversal_map` bit by bit (`mask_image`) onto `mirror`'s leaves
    and ranked there by `reference_index`."""
    near = kind == "near"
    r = reversal_map(child, mirror)
    lo = min(r.values())  # `mirror`'s leaves are the input positions lo, lo + 1, ...
    trees = _placed({}, None, _plans(child).program, _root(child), build_plan(child), near)
    plan = build_plan(mirror)
    codes = reference_codes(mirror)
    return tuple(reference_index(mirror, plan, mask_image(x, r), near, lo, codes) for x in trees)


def _is_near(plan: _Plan, part: int) -> bool:
    """True for a near tree's edge count on `plan`'s node, False for a spanning tree's."""
    bits = part.bit_count()
    if bits != plan.n - 1 and bits != plan.n - 2:
        raise ImageNotFound("branch edge count fits neither kind")
    return bits == plan.n - 2


def reference_index(
    node: Node, plan: _Plan, mask: int, near: bool, lo: int = 0, codes: dict | None = None
) -> int:
    """`generate._index` by recursion, on `node`, whose leaves are the input
    positions lo, ..., lo + m - 1, with each kind's rule written out.

    Digits run over series children or parallel classes in order; the odd
    part (the child with a near tree's break, the class with a spanning
    tree's spanning member) picks the offset.  A class's digit ranks its
    spanning tree, if any, then the multiset of its members' near trees.
    Classes are read from `codes`, the `reference_codes` of a tree holding
    `node` (by default of `node`).  Small trees only (it recurses).
    """
    if plan.kind == "leaf":
        if mask != (0 if near else 1 << lo):
            raise ImageNotFound("not the leaf's near or spanning tree")
        return 0
    rank, odd = 0, None
    if plan.kind == "series":
        for j, (child, part_plan) in enumerate(zip(node.children, plan.parts)):
            part = mask & ((1 << part_plan.m) - 1) << lo
            if _is_near(part_plan, part):
                if not near or odd is not None:
                    raise ImageNotFound("the break is not in exactly one branch")
                digit = reference_index(child, part_plan, part, True, lo, codes)
                rank, odd = rank * part_plan.nt + digit, j
            else:
                digit = reference_index(child, part_plan, part, False, lo, codes)
                rank = rank * part_plan.st + digit
            lo += part_plan.m
        offsets = reference_offsets([c.nt for c in plan.parts], [c.st for c in plan.parts])
    else:
        # The children run in storage order, each ranked on its class's plan.
        codes = codes or reference_codes(node)
        class_of = {code: j for j, (code, _) in enumerate(reference_classes(node, codes))}
        nears, spans = [[] for _ in class_of], [[] for _ in class_of]
        for child in node.children:
            j = class_of[codes[id(child)][0]]
            rep = plan.parts[j].rep_plan
            part = mask & ((1 << rep.m) - 1) << lo
            is_near = _is_near(rep, part)
            digit = reference_index(child, rep, part, is_near, lo, codes)
            (nears if is_near else spans)[j].append(digit)
            lo += rep.m
        for j, cp in enumerate(plan.parts):
            rep = cp.rep_plan
            digit = multiset_rank(tuple(sorted(nears[j])), rep.nt)
            if not spans[j]:
                rank = rank * cp.nt + digit
                continue
            if near or odd is not None or len(spans[j]) > 1:
                raise ImageNotFound("a spanning branch where none or another fits")
            rank = rank * cp.st + spans[j][0] * multiset_coefficient(rep.nt, cp.size - 1) + digit
            odd = j
        offsets = reference_offsets([cp.st for cp in plan.parts], [cp.nt for cp in plan.parts])
    if (odd is None) == (near == (plan.kind == "series")):
        raise ImageNotFound("no branch carries the break or the spanning tree")
    return rank if odd is None else offsets[odd] + rank


def mirror_pairs(tree: Node) -> list[tuple[Node, Node]]:
    """Every (x, y) with code(x) = rev_code(y) that a reversal pairs at some
    node of `tree`: the node against itself, series children i and k-1-i,
    and parallel class representatives."""
    codes, pairs, stack = reference_codes(tree), [], [tree]
    code, rev = (lambda x: codes[id(x)][0]), (lambda x: codes[id(x)][1])
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if code(node) == rev(node):
            pairs.append((node, node))
        if isinstance(node, Series):
            kids = node.children
            pairs += [(a, b) for a, b in zip(kids, reversed(kids)) if code(a) == rev(b)]
        elif isinstance(node, Parallel):
            classes = reference_classes(node, codes)
            reps = {c: node.children[members[0]] for c, members in classes}
            pairs += [(rep, reps[rev(rep)]) for rep in reps.values() if rev(rep) in reps]
    return pairs


def reference_semioriented_masks(tree: Node, numbering=None) -> list[int]:
    """`semi._masks` candidate by candidate, as a list.

    Each slot (series child, parallel class) has a list of items, a target
    slot and an index action; a parallel class's items are its near
    assignments followed by its spanning ones.  A candidate picks one item
    index per slot, within its block's ranges, and is kept iff it compares
    >= its partner, filled in slot by slot.  A kept candidate's mask is the
    sum of its items."""
    plan = build_plan(tree)
    code, rev = reference_code(tree)
    if plan.kind == "leaf" or code != rev:
        return list(_streams(tree, False, numbering=numbering)[0])
    plans = _plans(tree)
    target, perms = _parts(_reversal_perms(plans.by_code.values(), plans.by_code), plan, plan)
    placed = partial(_placed, {}, numbering, plans.program)
    refs = plans.program[-1][1]
    if plan.kind == "series":
        items = [placed(ref, part, False) for ref, part in zip(refs, plan.parts)]
        perms = [span for _, span in perms]
        blocks = [[range(len(lst)) for lst in items]]
    else:
        classes = plan.parts
        perms = [
            tuple(near) + tuple(cp.nt + s for s in span)
            for cp, (near, span) in zip(classes, perms)
        ]
        # Class j's members are the next cp.size refs of the root's.
        ends = list(itertools.accumulate([cp.size for cp in classes], initial=0))
        items = [
            reference_assignments(refs[a:b], cp.rep_plan, True, placed)
            + reference_assignments(refs[a:b], cp.rep_plan, False, placed)
            for a, b, cp in zip(ends, ends[1:], classes)
        ]
        blocks = [
            [range(cp.nt, cp.nt + cp.st) if j == a else range(cp.nt) for j, cp in enumerate(classes)]
            for a in range(len(classes))
        ]
    out, partner = [], [0] * len(items)
    for ranges in blocks:
        for tup in product(*ranges):
            for a, x in enumerate(tup):
                partner[target[a]] = perms[a][x]
            if tup >= tuple(partner):
                out.append(sum(map(operator.getitem, items, tup)))
    return out


def semioriented_masks(tree: Node, numbering=None) -> list[int]:
    """The semioriented stream in `numbering`, as in `generate._placed`: the
    oriented stream in that numbering through the reversal filter's
    `_selectors`, as the CLI reads it; `_masks` in the input numbering."""
    keep = _selectors(tree)
    stream = _streams(tree, False, numbering=numbering)[0]
    return list(stream if keep is None else compress(stream, keep))


def assert_filter_matches_the_reference(tree):
    """The semioriented stream in the input numbering and in a permuted one:
    the per-candidate reference's masks, a subsequence of the oriented
    stream, as many as the semioriented count, and in the input numbering
    `_masks`."""
    assert list(_masks(tree)) == semioriented_masks(tree)
    shuffled = list(range(build_plan(tree).m))
    random.Random(len(shuffled)).shuffle(shuffled)
    for numbering in (None, shuffled):
        kept = semioriented_masks(tree, numbering)
        assert kept == reference_semioriented_masks(tree, numbering)
        oriented_stream = _streams(tree, False, numbering=numbering)[0]
        assert all(mask in oriented_stream for mask in kept)  # in order: one pass
        assert len(kept) == count_semioriented(SemiorientedSP(tree))


# ---------------------------------------------------------------------------
# List-based references for the oracle kernels
# ---------------------------------------------------------------------------


def reference_forests(g, k: int):
    """Each acyclic k-edge set as (mask, comp), in combination order, by a
    walk that prunes only by edge count: comp[v] is the index of the vertex
    that names v's component, and each accepted edge relabels one component
    by a list comprehension.  At k = n − 1 `oracle._forests` must yield the
    same masks in the same order."""
    vidx = g.vertex_index
    endpoints = [(vidx[u], vidx[v]) for u, v in g.edges]
    m = len(endpoints)
    stack = [(0, 0, 0, list(range(g.n)))]
    while stack:
        pos, mask, size, comp = stack.pop()
        if size == k:
            yield mask, comp
        elif m - pos >= k - size:
            stack.append((pos + 1, mask, size, comp))
            u, v = endpoints[pos]
            a, b = comp[u], comp[v]
            if a != b:
                merged = [a if c == b else c for c in comp]
                stack.append((pos + 1, mask | 1 << pos, size + 1, merged))


def all_acyclic_near_sets(g) -> list[EdgeSet]:
    """All (n-2)-edge acyclic sets, terminal-free (spanning tree minus an
    edge), in combination order: k is below the rank, which
    `oracle._forests` does not walk."""
    return [EdgeSet(mask) for mask, _ in reference_forests(g, g.n - 2)]


class Classification(Enum):
    SPANNING_TREE = "spanning_tree"
    NEAR_TREE = "near_tree"
    OTHER = "other"


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the classes of x and y; False if already together."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def within(es: EdgeSet, m: int) -> bool:
    """Whether every index of `es` lies below m."""
    return es.mask >> m == 0


def classify_edge_set(graph, es: EdgeSet) -> Classification:
    """Classify an edge subset of `graph`, by a union-find over its edges.

    A spanning tree has n - 1 acyclic edges covering every vertex; a
    near tree has n - 2 acyclic edges, with or without the terminals
    apart.  Anything else is OTHER.
    """
    if not within(es, graph.m):
        return Classification.OTHER
    card = es.bit_count()
    if card not in (graph.n - 1, graph.n - 2):
        return Classification.OTHER
    uf = _UnionFind(graph.n)
    vidx = graph.vertex_index
    for i in es.indices():
        u, v = graph.edges[i]
        if not uf.union(vidx[u], vidx[v]):
            return Classification.OTHER
    if card == graph.n - 1:
        return Classification.SPANNING_TREE
    return Classification.NEAR_TREE


def reference_automorphisms(g, policy) -> list[dict]:
    """`oracle.automorphisms` by testing each candidate against the
    partial map one assigned vertex at a time, with adjacency as label
    sets: the same permutations in the same order."""
    verts = list(g.vertices)
    adj: dict[str, set[str]] = {v: set() for v in verts}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    degree = {v: len(adj[v]) for v in verts}
    out: list[dict] = []

    def allowed(v: str, image: str, partial: dict[str, str]) -> bool:
        if degree[v] != degree[image]:
            return False
        if isinstance(policy, FixBoth):
            if (v == policy.s) != (image == policy.s) or (v == policy.t) != (image == policy.t):
                return False
        elif isinstance(policy, FixSet):
            pair = {policy.s, policy.t}
            if (v in pair) != (image in pair):
                return False
        return all((w in adj[v]) == (wimg in adj[image]) for w, wimg in partial.items())

    def recurse(i: int, partial: dict[str, str], used: set[str]) -> None:
        if i == len(verts):
            out.append(dict(partial))
            return
        v = verts[i]
        for image in verts:
            if image in used or not allowed(v, image, partial):
                continue
            partial[v] = image
            used.add(image)
            recurse(i + 1, partial, used)
            del partial[v]
            used.discard(image)

    recurse(0, {}, set())
    return out


def _reference_edge_maps(g, autos) -> list[dict[int, int]]:
    return [
        {i: g.index_of(sigma[u], sigma[v]) for i, (u, v) in enumerate(g.edges)}
        for sigma in autos
    ]


def reference_orbit_partition(trees: list[EdgeSet], autos, g) -> OrbitReport:
    """`oracle.orbit_partition` with every image taken bit by bit
    (`mask_image`) and each tree's key the least of all its images."""
    maps = _reference_edge_maps(g, autos)
    orbits: dict[int, list[EdgeSet]] = {}
    for tree in trees:
        key = min(mask_image(tree.mask, f) for f in maps)
        orbits.setdefault(key, []).append(tree)
    return OrbitReport(
        tuple((members[0], tuple(members)) for members in orbits.values()), len(autos)
    )


def reference_burnside_count(trees: list[EdgeSet], autos, g) -> int:
    """`oracle.burnside_count` with fixed points found bit by bit (`mask_image`)."""
    masks = {es.mask for es in trees}
    total = sum(
        mask_image(mask, f) == mask for f in _reference_edge_maps(g, autos) for mask in masks
    )
    if total % len(autos) != 0:
        raise NonIntegralResult(f"{total} fixed points over group order {len(autos)}")
    return total // len(autos)


def reference_least_images(g, masks: list[int], autos, fixing: str | None = None):
    """The spanning keys and fixed points that `verify_instance` folds
    through `oracle._least_images`, with every element's images taken bit
    by bit (`mask_image`), the identity's as well: each mask's least image
    under `autos` and under those fixing `fixing`, both starting at the
    mask itself, and the (mask, element) pairs where the element fixes the
    mask."""
    least, fixed_least, fixed = list(masks), list(masks), 0
    for sigma, edge_map in zip(autos, _reference_edge_maps(g, autos)):
        images = [mask_image(mask, edge_map) for mask in masks]
        least = list(map(min, least, images))
        if fixing is not None and sigma[fixing] == fixing:
            fixed_least = list(map(min, fixed_least, images))
        fixed += sum(image == mask for image, mask in zip(images, masks))
    return least, fixed_least, fixed


# ---------------------------------------------------------------------------
# Per-position reference for the plan
# ---------------------------------------------------------------------------


def reference_sums(blocks):
    """`generate._sums` as one sum per entry: the masks of the product of
    each block's lists, block by block, each product in product order."""
    return itertools.chain.from_iterable(map(sum, itertools.product(*b)) for b in blocks)


def reference_assignments(members, rep, near: bool, lists) -> tuple[int, ...]:
    """`generate._assignments` by summing each multiset's member masks,
    whatever the class size: multiset x_0 <= x_1 <= ... puts near tree x_p
    on member p, and a spanning assignment is a spanning tree on the first
    member beside a near multiset on the rest.  Prefix sums over count
    vectors replace this rule for wide classes."""
    first = 0 if near else 1
    if len(members) == 1:
        return lists(members[0], rep, near)
    tables = [lists(x, rep, True) for x in members[first:]]
    multisets = itertools.combinations_with_replacement(range(rep.nt), len(tables))
    sets = tuple([sum(map(operator.getitem, tables, mu)) for mu in multisets])
    return sets if near else tuple(a + b for a in lists(members[0], rep, False) for b in sets)


def reference_assignment_perm(size: int, near_perm, span_perm) -> tuple[list, list]:
    """`semi._assignment_perm` by ranking every image multiset, sorted,
    whatever the size: the rule that count vectors replace for large
    classes."""

    def images(k):
        rank = {mu: i for i, mu in enumerate(multiset_enumerate(len(near_perm), k))}
        return [rank[tuple(sorted(near_perm[x] for x in mu))] for mu in rank]

    rest = images(size - 1)
    return images(size), [s * len(rest) + i for s in span_perm for i in rest]


def reference_offsets(x: list[int], y: list[int]) -> list[int]:
    """Running sums of x[j] * prod(y[i] for i != j), from prefix and suffix
    products, which need no case for zeros in y: a node's block starts
    (`generate._starts`), x the parts' counts of the list's kind and y those
    of the other kind."""
    suffix = [1] * (len(y) + 1)
    for i in range(len(y) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * y[i]
    out, prefix = [0], 1
    for j, xj in enumerate(x):
        out.append(out[-1] + xj * prefix * suffix[j + 1])
        prefix *= y[j]
    return out


def reference_invariant_multisets(fixed: int, swapped_pairs: int, size: int) -> int:
    """`generate._invariant_multisets` with a fresh binomial per term: over
    j, the size-j multisets of the 2-cycles times the size-(size - 2j)
    multisets of the fixed items."""
    return sum(
        multiset_coefficient(swapped_pairs, j) * multiset_coefficient(fixed, size - 2 * j)
        for j in range(size // 2 + 1)
    )


def reference_plan(node: Node, codes: dict | None = None) -> _Plan:
    """`generate.build_plan` as one fresh plan per node, recursively, with the
    total counts summed member by member and the codes of `reference_codes`
    (passed down as `codes`): every field and part of the shared plan must
    equal this one's.  Small trees only (it recurses)."""
    if isinstance(node, Leaf):
        return _Plan("leaf", "E", "E", 1, n=2, st=1, nt=1, tau=1, nu=1, ss=1, sn=1)
    codes = codes or reference_codes(node)
    code, rev = codes[id(node)]
    palindrome = code == rev
    if isinstance(node, Series):
        kids = [reference_plan(child, codes) for child in node.children]
        k = len(kids)
        sts, taus = [c.st for c in kids], [c.tau for c in kids]
        offsets = reference_offsets([c.nt for c in kids], sts)
        st, nt = math.prod(sts), offsets[-1]
        plan = _Plan(
            "series", code, rev, sum(c.m for c in kids), n=sum(c.n for c in kids) - (k - 1),
            st=st, nt=nt, tau=math.prod(taus),
            nu=reference_offsets([c.nu for c in kids], taus)[-1], ss=st, sn=nt, parts=tuple(kids),
        )
        if palindrome:
            half = math.prod(sts[: k // 2])
            fix_sp, fix_nt = half, 0
            if k % 2:
                mid = kids[k // 2]
                fix_sp, fix_nt = half * (2 * mid.ss - mid.st), half * (2 * mid.sn - mid.nt)
            plan.ss, plan.sn = (st + fix_sp) // 2, (nt + fix_nt) // 2
        return plan
    order, classes = reference_classes(node, codes), []
    for _, members in order:
        rep = reference_plan(node.children[members[0]], codes)
        size = len(members)
        nc = multiset_coefficient(rep.nt, size)
        classes.append(_ClassPlan(size, rep, nc, rep.st * multiset_coefficient(rep.nt, size - 1)))
    ncs = [cp.nt for cp in classes]
    offsets = reference_offsets([cp.st for cp in classes], ncs)
    st, nt = offsets[-1], math.prod(ncs)
    taus = [cp.rep_plan.tau for cp in classes for _ in range(cp.size)]
    nus = [cp.rep_plan.nu for cp in classes for _ in range(cp.size)]
    plan = _Plan(
        "parallel", code, rev, sum(cp.size * cp.rep_plan.m for cp in classes),
        n=sum(cp.rep_plan.n * cp.size for cp in classes) - 2 * (len(node.children) - 1),
        st=st, nt=nt, tau=reference_offsets(taus, nus)[-1], nu=math.prod(nus),
        ss=st, sn=nt, parts=tuple(classes),
    )
    if not palindrome:
        return plan
    pair_nc, seen, fix_nc, fix_sc = 1, set(), [], []
    for (code, members), cp in zip(order, classes):
        rep = cp.rep_plan
        rev = codes[id(node.children[members[0]])][1]
        if code == rev:
            invariant = partial(reference_invariant_multisets, 2 * rep.sn - rep.nt, rep.nt - rep.sn)
            fix_nc.append(invariant(cp.size))
            fix_sc.append((2 * rep.ss - rep.st) * invariant(cp.size - 1))
        elif code not in seen:
            seen.add(rev)
            pair_nc *= cp.nt
    plan.ss = (st + pair_nc * reference_offsets(fix_sc, fix_nc)[-1]) // 2
    plan.sn = (nt + pair_nc * math.prod(fix_nc)) // 2
    return plan
