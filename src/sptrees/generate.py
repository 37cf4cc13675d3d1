"""Oriented enumeration and counting of nonequivalent spanning trees.

Everything here works up to the terminal-fixing automorphisms of the
graph.  Series and parallel composition are dual, so one rule composes
both.  A node's parts are its series children, or its parallel classes
(children in one oriented isomorphism class).  Every part gives the
node's base kind of tree, or exactly one part gives the other, flip kind:

  * series node: a spanning tree is a spanning tree on every child (base);
    a near tree breaks in one child, with a near tree there (flip);
  * parallel node: a near tree is a near assignment on every class (base);
    a spanning tree takes one class's spanning assignment (flip).

A class of size c with r nonequivalent near trees has the C(r+c-1, c)
multisets of representative trees as its near assignments, one tree on
each member, since its members are interchangeable; a spanning
assignment puts a spanning tree on one member (the first in storage
order) and a size c-1 near multiset on the rest.  So a node has prod
base_i trees of its base kind and sum_j flip_j prod_{i != j} base_i of
its flip kind, the latter one block per part, part j flipped in block j
(`_layout`).

"Near tree" throughout means a two-component spanning forest that
separates the terminals; those are the objects that compose (a forest
keeping the terminals connected would close a cycle when a sibling
branch supplies the through path, and every subset brute force can
build from these compositions separates the terminals at every level).

`build_plan` is the single home of the counting arithmetic and of every
shape fact, the canonical codes included.  A plan describes an oriented
shape, not a place, and holds counts, codes and parts only.  One loop
over the inner nodes, children first, looks each node up by its parts'
plans (a series node by its children's in order, a P node by their
multiset), and only for a shape not seen before does `_compose` build
a plan: its canonical and reversal codes from the parts' codes (a leaf
is "E", a series node wraps its children's codes in "S(...)" in chain
order, reversed for the reversal code, and a P node wraps them in
"P(...)" sorted by `code_sort_key`), its parts (a P shape's classes, by
descending code, sorted once here), the vertex count, the oriented
counts (spanning, near), the counts with no automorphism reduction (tau,
nu) and the semioriented counts (spanning, near up to terminal
exchange), composed from its parts' counts (a class, and for the totals
a group of equal members, in closed form).  `_partners` reads two plans
and says which part holds a part's reversals.  The `count_*` functions
return fields of the root plan.  Every "product of x_j, and sum over j
of y_j times the product of the others" pair is one product-rule fold
(`_fold`): (B, F) <- (B x, F x + B y) per factor, or (B x^g, F x^g + B g
y x^(g-1)) for g equal factors, which multiplies and never divides, so a
zero count needs no case of its own.  A list's block starts are the
fold's prefix flip terms times the products of the factors after them,
computed only where they are read (`_starts`).
The semioriented counts use the reversal-fixed terms: with a reversal
symmetry the semioriented count is (oriented count + fixed candidates) /
2, and the number of reversal-fixed entries of a part's list is twice
its semioriented count minus its oriented count, whichever reversal
realizes the symmetry (for a class, the multisets the reversal fixes).
The filter that enumerates the semioriented trees lives in `semi`,
which builds its reversal actions from the plans alone, in the order
this pass made them.

The enumeration order is deterministic: classes descend by canonical
code, assignment indices count near multisets first then spanning
choices, and tuples advance lexicographically.  `spanning_tree_index`
and `near_tree_index` invert the order: they take any spanning or near
tree edge set and return the position of its orbit's representative.

The pass runs once per tree object and keeps on the root node, never on
the other nodes, its plans by code, each after its parts, and the
program (`_Plans`): one entry per inner node, children first, of its plan
and its children's refs, a ref being an inner child's slot in the
program or a leaf's ~index, a P node's refs grouped by class in class
order.  The lists, the index and the leaf maps of `canonical` walk the
program, never the nodes.
Every enumeration list (a node's spanning and near trees, a class's near
and spanning assignments) is a tuple of plain int leaf masks, so that
`itertools.product` takes it without a copy, built bottom-up on first
use into a memo that belongs to one enumeration and is freed with it.
The lists belong to the tree's own nodes, by ref (`_placed`): a leaf's
list holds its bit in a numbering the caller chooses (the input leaf
numbering for the public enumerations, the print order for the CLI),
and a P node's class members are its actual children, the class's run
of its refs.  Each member's list is built from its own structure,
which is the representative's up to the class's isomorphism, so entry i
of every member's list is the same tree up to that map.  List entries
combine masks on disjoint leaf sets, so every entry is a sum of masks,
and no mask is moved bit by bit.  `_sums` sums each product of part
lists.  A block picks its fold by its lists' sizes (`_split`): a large one
sums its trailing lists once, into a tail, and adds each prefix of the
lists ahead to every tail entry, so a tree costs one add (an `or`, the
masks being disjoint); a small one sums each entry's parts.  A class's
multiset sums its members' masks, except where the class is wide, its c
members many against its representative's r near trees (`_wide`).  There
each multiset is read as its count vector, whose mask is r - 1 lookups
in differences of the members' prefix sums, summed (`_assignments`), so
an entry costs O(r) and not O(c).  The enumerations stream the root's
trees from its part lists (`_blocks`), so large outputs are never held
in memory at once.  The index operations rank a
tree in one loop over the program, each leaf reading its own bit in the
input numbering; a wide class's multiset is ranked from its count
vector (`_digit`).  `unrank` is their inverse, the same loop run from the
root down (`_unrank`): each slot splits its position into a block and
one digit per part, and a class's digit becomes a multiset by the
combinatorial number system (`multiset_unrank`), with no list, so the
CLI writes each instance's first tree before any list is built.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from collections import Counter
from functools import partial
from typing import NamedTuple

from .core import EdgeSet, Leaf, Node, OrientedSP, Series, _Mutable, _Record, _tree_of, inner_postorder

_TOKEN_KEY = str.maketrans("SPE()", "ABCDE")


def code_sort_key(code: str) -> str:
    """Translate a code into a string whose natural order matches S < P < E < ( < )."""
    return code.translate(_TOKEN_KEY)


class ImageNotFound(ValueError):
    """An edge set could not be located in the enumeration order.

    Raised by the index operations when the input is not a valid
    spanning or near tree of the graph; reaching it from inside the
    library signals a broken index-stability invariant.
    """


class CountPair(_Record):
    __slots__ = ("spanning", "near")

    def __init__(self, spanning: int, near: int) -> None:
        _set_spanning(self, spanning)
        _set_near(self, near)


_set_spanning, _set_near = CountPair.spanning.__set__, CountPair.near.__set__


# ---------------------------------------------------------------------------
# Multisets
# ---------------------------------------------------------------------------


def multiset_coefficient(m: int, k: int) -> int:
    """Number of size-k multisets over m items, C(m+k-1, k)."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if m <= 0:
        return 0
    return math.comb(m + k - 1, k)


def multiset_enumerate(m: int, k: int) -> list[tuple[int, ...]]:
    """All nondecreasing k-tuples over range(m), lexicographic."""
    return list(itertools.combinations_with_replacement(range(m), k))


def multiset_rank(seq: tuple[int, ...], m: int) -> int:
    """Position of a nondecreasing tuple in `multiset_enumerate(m, len(seq))`."""
    k = len(seq)
    rank = 0
    prev = 0
    for i, v in enumerate(seq):
        rank += multiset_coefficient(m - prev, k - i) - multiset_coefficient(m - v, k - i)
        prev = v
    return rank


def multiset_unrank(rank: int, m: int, k: int) -> tuple[int, ...]:
    """Entry `rank` of `multiset_enumerate(m, k)`, the inverse of
    `multiset_rank` (the combinatorial number system, TAOCP 7.2.1.3).

    Place i holds the largest v >= prev, the value at place i - 1 (0 at
    place 0), whose multisets ahead, M(m - prev, k - i) - M(m - v, k - i),
    do not exceed what is left of the rank, found by bisection over v, so
    a multiset costs O(k log m) binomials and never O(m).  Once nothing is
    left, every later place repeats prev."""
    out, prev = [], 0
    for i in range(k):
        if not rank:
            out.extend([prev] * (k - i))
            break
        total = multiset_coefficient(m - prev, k - i)
        lo, hi = prev, m - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if total - multiset_coefficient(m - mid, k - i) <= rank:
                lo = mid
            else:
                hi = mid - 1
        rank -= total - multiset_coefficient(m - lo, k - i)
        out.append(lo)
        prev = lo
    return tuple(out)


# ---------------------------------------------------------------------------
# Enumeration plans
# ---------------------------------------------------------------------------


class _ClassPlan(_Mutable):
    """One class of a parallel node as a part: `size` members, all planned by
    `rep_plan`, with nt near and st spanning assignments, under the names a
    child plan gives its near and spanning trees."""

    __slots__ = ("size", "rep_plan", "nt", "st")

    def __init__(self, size: int, rep_plan: _Plan, nt: int, st: int) -> None:
        self.size = size
        self.rep_plan = rep_plan
        self.nt = nt
        self.st = st

    def fixed(self) -> tuple[int, int]:
        """Spanning and near assignments a reversal of the class onto itself
        fixes: it fixes 2*sn - nt of the representative's near trees and
        swaps the other nt - sn in pairs (`_invariant_multisets`)."""
        rep = self.rep_plan
        fixed, swapped = 2 * rep.sn - rep.nt, rep.nt - rep.sn
        span = (2 * rep.ss - rep.st) * _invariant_multisets(fixed, swapped, self.size - 1)
        return span, _invariant_multisets(fixed, swapped, self.size)


class _Plan:
    """Counts, codes and parts of one oriented shape, of `kind` leaf, series
    or parallel.

    The plan holds no node, no position and no tree list, so every subtree
    of one shape shares it, and a plan kept on its tree's root makes no
    reference cycle.  `code` and `rev` are the shape's canonical and
    reversal codes.  Its parts are the series children's plans, in order,
    or the parallel classes (`_ClassPlan`), by descending code (sorted
    once per shape, in `_compose`); m counts its leaves and n its vertices.
    st, nt are the oriented spanning and near counts, tau, nu the counts
    with no automorphism reduction, ss, sn the semioriented ones.
    """

    __slots__ = ("kind", "code", "rev", "m", "n", "st", "nt", "tau", "nu", "ss", "sn", "parts")

    def __init__(self, kind: str, code: str, rev: str, m: int, n: int, st: int, nt: int,
                 tau: int, nu: int, ss: int, sn: int, parts: tuple = ()) -> None:
        # One statement per slot: an unpacked tuple costs a third more.
        self.kind = kind
        self.code = code
        self.rev = rev
        self.m = m
        self.n = n
        self.st = st
        self.nt = nt
        self.tau = tau
        self.nu = nu
        self.ss = ss
        self.sn = sn
        self.parts = parts

    def fixed(self) -> tuple[int, int]:
        """Spanning and near trees a reversal of the shape onto itself fixes:
        twice the semioriented count less the oriented one."""
        return 2 * self.ss - self.st, 2 * self.sn - self.nt

    def _flat(self) -> list[tuple]:
        """The fields of the plan and of every part below it, in preorder, a
        class as (size, nt, st) before its representative's plan, each plan
        with its number of parts: what `==` compares and `repr` shows, read
        by an explicit stack, so that neither recurses on a deep plan."""
        out, stack = [], [self]
        while stack:
            p = stack.pop()
            if isinstance(p, _ClassPlan):
                out.append((p.size, p.nt, p.st))
                stack.append(p.rep_plan)
            else:
                out.append((p.kind, p.code, p.rev, p.m, p.n, p.st, p.nt, p.tau, p.nu,
                            p.ss, p.sn, len(p.parts)))
                stack.extend(reversed(p.parts))
        return out

    def __eq__(self, other: object):
        if not isinstance(other, _Plan):
            return NotImplemented
        return self is other or self._flat() == other._flat()

    def __repr__(self) -> str:
        return f"_Plan({self._flat()})"


class _Plans(NamedTuple):
    """What the plan pass keeps on a tree's root: the plan of every shape in
    the tree by code, each after its parts' plans, the root's last, and the
    program, one (plan, refs) entry per inner node, children first, the
    root's last.  A ref names a child: an inner child's slot in the program,
    or ~index for a leaf.  A series node's refs are its children's, in
    order; a P node's are grouped by class, in its plan's class order, each
    class's members in storage order, so that part j's members are the
    next `size` refs.  `starts` caches, by (code, near), a shape's block
    starts (`_starts`) for the index, ints only, filled as ranks read them."""

    by_code: dict[str, _Plan]
    program: list[tuple[_Plan, tuple[int, ...]]]
    starts: dict[tuple[str, bool], list[int]]


def build_plan(g) -> _Plan:
    """Codes, classes and counts of a normalized tree: its root's plan, the
    last one that the plan pass made (`_plans`)."""
    return next(reversed(_plans(_tree_of(g)).by_code.values()))


def _root(tree: Node) -> int:
    """The ref of `tree`'s root in its program: the last slot, or a lone
    edge's ~index."""
    program = _plans(tree).program
    return len(program) - 1 if program else ~tree.index


def _plans(tree: Node) -> _Plans:
    """The plan pass's result on `tree`, built once per tree object and kept
    on its root node alone, in the `_plans` slot that every node has and
    that nothing else writes.  The plans hold counts, codes and parts only,
    and the program plans and ints only, never a node or a tree list.
    Within one build, isomorphic subtrees share one plan wherever they sit.
    """
    plans = getattr(tree, "_plans", None)
    if plans is None:  # the one write to a built node's slot
        object.__setattr__(tree, "_plans", plans := _build(tree))
    return plans


def _half(x: int) -> int:
    assert x % 2 == 0, "reversal pairs do not pair off"
    return x // 2


def _invariant_multisets(fixed: int, swapped_pairs: int, size: int) -> int:
    """Size-`size` multisets invariant under an involution on the items.

    The involution has `fixed` fixed items and `swapped_pairs` 2-cycles;
    an invariant multiset gives both members of a 2-cycle the same
    multiplicity, so pairs are drawn two at a time: it sums, over j, the
    size-j multisets of pairs times the size-(size - 2j) multisets of fixed
    items.  Both factors come by ratio updates, j up from 0 and size - 2j
    up from size % 2, so no term is a fresh binomial.  Sizes 0 and 1, which
    most calls ask for, have one term each: 1, and the fixed items.
    """
    if size < 2:
        return fixed if size else 1
    pairs, singles = [1], [fixed if size % 2 else 1]
    for j, k in enumerate(range(size % 2, size - 1, 2)):
        pairs.append(pairs[-1] * (swapped_pairs + j) // (j + 1))
        singles.append(singles[-1] * (fixed + k) * (fixed + k + 1) // ((k + 1) * (k + 2)))
    return sum(map(operator.mul, pairs, reversed(singles)))


def _build(tree: Node) -> _Plans:
    """The bottom-up pass: one plan per shape of `tree`, and the program, in
    one loop over its inner nodes, children first, so that nothing recurses.
    A node's shape is its kind and its children's plans, in order for a
    series node and as a multiset for a P node; only a new shape is
    composed.  A P node of several classes orders its refs by class, stably,
    by a permutation made once per sequence of children's plans."""
    leaf = _Plan("leaf", "E", "E", 1, n=2, st=1, nt=1, tau=1, nu=1, ss=1, sn=1)
    by_code, shapes, orders, program, waiting = {"E": leaf}, {}, {}, [], []
    pop = waiting.pop
    for node in inner_postorder(tree):
        # The slots of inner nodes whose parent is still to come wait on a
        # stack, this node's last inner child's on top.
        refs, kids = [], []
        for child in reversed(node.children):
            ref = ~child.index if child.__class__ is Leaf else pop()
            refs.append(ref)
            kids.append(program[ref][0] if ref >= 0 else leaf)
        refs.reverse()
        kids.reverse()
        series = node.__class__ is Series
        ids = tuple(map(id, kids))
        key = (series, ids if series else tuple(sorted(ids)))
        plan = shapes.get(key)
        if plan is None:
            plan = shapes[key] = _compose(series, kids)
            by_code[plan.code] = plan
        if not series and len(plan.parts) > 1:
            order = orders.get(ids)
            if order is None:
                place = {id(cp.rep_plan): j for j, cp in enumerate(plan.parts)}
                order = orders[ids] = sorted(range(len(ids)), key=[place[i] for i in ids].__getitem__)
            refs = [refs[i] for i in order]
        waiting.append(len(program))
        program.append((plan, tuple(refs)))
    return _Plans(by_code, program, {})


def _fold(terms) -> list[tuple[int, int]]:
    """The product rule over `terms` (x, y, g), g equal factors of x base and
    y flip trees each, as its prefix pairs (base, flip): each extends (B, F)
    to (B x^g, F x^g + B g y x^(g-1)), so the last pair is (prod x^g, sum
    of each factor's flip trees times the others' base trees), by
    multiplications alone, zero counts included."""
    out = [(1, 0)]
    for x, y, g in terms:
        base, flip = out[-1]
        power = x ** (g - 1)
        out.append((base * power * x, (flip * x + base * g * y) * power))
    return out


def _compose(series: bool, kids: list[_Plan]) -> _Plan:
    """The plan of a series (or parallel) node whose children have the plans
    `kids`, in storage order.  Its codes wrap the children's, and its counts
    follow the rule the two kinds share: base = prod base_i and flip =
    sum_j flip_j prod_{i != j} base_i, with (base, flip) the (spanning,
    near) counts of a series node and the (near, spanning) counts of a
    parallel one.  One product-rule fold (`_fold`) gives each pair: over
    the groups of equal series children, over the P classes, over the
    groups of equal children for the counts with no automorphism reduction
    (g members of x base and y flip trees have x^g base trees and g y
    x^(g-1) flip trees), and over the self-paired parts for the
    reversal-fixed terms."""
    # The members grouped by plan, [plan, g] for g equal members of one plan.
    groups = {}
    for p in kids:
        group = groups.get(id(p))
        if group:
            group[1] += 1
        else:
            groups[id(p)] = [p, 1]
    groups = list(groups.values())
    if series:
        kind, parts, shared = "series", kids, 1
        code = "S(" + "".join([p.code for p in kids]) + ")"
        rev = "S(" + "".join([p.rev for p in reversed(kids)]) + ")"
        st, nt = _fold([(p.st, p.nt, g) for p, g in groups])[-1]
        tau, nu = _fold([(p.tau, p.nu, g) for p, g in groups])[-1]
    else:
        groups = _classes(groups)
        kind, parts, shared = "parallel", [_class(rep, g) for rep, g in groups], 2
        code = "P(" + "".join([rep.code * g for rep, g in reversed(groups)]) + ")"
        revs = sorted(groups, key=lambda group: code_sort_key(group[0].rev))
        rev = "P(" + "".join([rep.rev * g for rep, g in revs]) + ")"
        nt, st = _fold([(cp.nt, cp.st, 1) for cp in parts])[-1]
        nu, tau = _fold([(p.nu, p.tau, g) for p, g in groups])[-1]
    m = sum([p.m * g for p, g in groups])
    # Each member after the first shares `shared` vertices with those before it.
    n = sum([p.n * g for p, g in groups]) - shared * (len(kids) - 1)
    plan = _Plan(kind, code, rev, m, n, st, nt, tau, nu, st, nt, tuple(parts))
    if code != rev:
        return plan
    # The reversal carries part i onto part dest[i] (`_partners`).  A fixed
    # candidate takes mirror trees on a pair of parts (one choice per pair)
    # and reversal-fixed ones, (spanning, near), on a self-paired part,
    # which alone can flip.
    dest = _partners(plan, plan)
    fixed = [parts[i].fixed() for i, j in enumerate(dest) if i == j]
    if series:
        paired = math.prod([parts[i].st for i, j in enumerate(dest) if i < j])
        fixed_st, fixed_nt = _fold([(span, near, 1) for span, near in fixed])[-1]
    else:
        paired = math.prod([parts[i].nt for i, j in enumerate(dest) if i < j])
        fixed_nt, fixed_st = _fold([(near, span, 1) for span, near in fixed])[-1]
    plan.ss, plan.sn = _half(st + paired * fixed_st), _half(nt + paired * fixed_nt)
    return plan


def _classes(groups: list[list]) -> list[list]:
    """A P shape's classes, [member plan, size], by descending code: the
    class order that fixes the enumeration order, sorted once per shape."""
    return sorted(groups, key=lambda group: code_sort_key(group[0].code), reverse=True)


def _partners(xp: _Plan, yp: _Plan) -> list[int]:
    """Per part of the plan xp, the part of yp that holds its reversals,
    where xp.code = yp.rev: series child i's are in child k-1-i, and a
    class's in the class whose representative's reversal code is the
    class's code.  The map is a bijection onto yp's parts that keeps each
    class's size, and `_partners(yp, xp)` inverts it."""
    if xp.kind == "series":
        return list(range(len(xp.parts) - 1, -1, -1))
    at = {cp.rep_plan.rev: b for b, cp in enumerate(yp.parts)}
    return [at[cp.rep_plan.code] for cp in xp.parts]


def _class(rep: _Plan, size: int) -> _ClassPlan:
    """A class of `size` members planned by `rep`: its near assignments are
    the size-`size` multisets of rep's near trees; a spanning one is a
    spanning tree on one member beside a multiset on the rest."""
    nt = multiset_coefficient(rep.nt, size)
    return _ClassPlan(size, rep, nt, rep.st * multiset_coefficient(rep.nt, size - 1))


def _count(part, near: bool) -> int:
    """A part's number of near (or spanning) trees or assignments."""
    return part.nt if near else part.st


def _layout(plan: _Plan, near: bool, item) -> list[list]:
    """The blocks of the node's near (or spanning) list, each as `item(i,
    kind)` per part i, kind True for near.  Every part gives the node's base
    kind of tree (a series child a spanning tree, a class a near
    assignment); those trees are one block.  The other kind is one block per
    part j, in which part j alone gives it (`_block_of`).  Each item is made
    once, and a lone part's base item only if a block uses it."""
    base, k = plan.kind == "parallel", len(plan.parts)
    if near == base:
        return [[item(i, base) for i in range(k)]]
    rest = [item(i, base) for i in range(k)] if k > 1 else []
    return [rest[:j] + [item(j, near)] + rest[j + 1 :] for j in range(k)]


def _block_of(kinds, near: bool) -> int:
    """The block of a near (or spanning) list whose parts give `kinds`, as
    `_starts` indexes it: the part that alone gives the list's kind, or 0
    for the one block in which every part does."""
    return kinds.index(near) if kinds.count(near) == 1 else 0


def _starts(parts, near: bool) -> list[int]:
    """Where each block of a node's near (or spanning) list starts, by
    `_block_of`: the sizes of the blocks before it, each the product of its
    parts' counts.  The one block of the base kind starts at entry 0, 0.
    Block a of the other kind starts at the fold's flip term over the parts
    before a (`_fold`) times the product of the base counts from a on."""
    terms = [(_count(p, not near), _count(p, near), 1) for p in parts]
    starts, after = [flip for _, flip in _fold(terms)], 1
    for a in range(len(terms) - 1, -1, -1):
        after *= terms[a][0]
        starts[a] *= after
    return starts


# A folding block's tail holds at least _TAIL entries, and a list of under
# _FOLD entries folds no block (`_split`).  Streaming the 18 enumerate-stream
# lists of seeds 1-3 (medians of 15 alternating runs, summed, on one core of
# a 2-vCPU x86-64 VM, Python 3.11.7) took 37.4, 37.6 and 37.2 ms at _TAIL =
# 16, 32 and 64 on seed 1, 31.9, 31.7 and 34.0 ms on seed 2 and 30.9, 30.0
# and 30.5 ms on seed 3; with no fold, seed 1 took 48.1 ms, and at _FOLD =
# 4096, 1024, 256 and 128, 36.6, 35.4, 31.9 and 34.5 ms.  The lists of
# verify's 66 verify-oracle inputs of seeds 1-3 all hold under 256 entries,
# so they keep the per-entry sums and ask nothing per block.
_TAIL = 32
_FOLD = 256


def _sums(blocks, size: int, plus=operator.or_):
    """Masks of the product of each block's lists, block by block, each
    product in product order, `size` of them in all.

    Every product combines masks on disjoint leaf sets (series
    children, parallel members), so the union of a combination is its
    sum.  Under _FOLD entries in all, each entry sums its block's lists,
    and nothing is asked per block.  In a larger list, a one-list block is
    its own list, and a block that folds (`_split`) sums its trailing lists
    once, into a tail, and joins each prefix, the sum of one entry of each
    list ahead of the tail, to every tail entry by `plus`: one operation a
    tree, by C-level maps, the last list fastest.  For masks that is
    `operator.or_`, which allocates each int at its size, where an add of
    ints of an even number of 30-bit digits allocates a spare digit (a
    third more memory on lists of 41-bit masks); `semi` passes
    `operator.add` for its index sums.
    """
    if size < _FOLD:
        return map(sum, itertools.chain.from_iterable(itertools.starmap(itertools.product, blocks)))
    return itertools.chain.from_iterable(map(_block_sums, blocks, itertools.repeat(plus)))


def _block_sums(lists, plus):
    """`_sums` of one block.  A tail of several lists is folded lazily, by
    `plus` as well, and cycled, so that its first pass streams with the
    first prefix and the first entry waits for no tail; the last list alone
    is read in place, never copied."""
    if len(lists) == 1:
        return lists[0]
    sizes = list(map(len, lists))
    j = _split(sizes)
    if not j:
        return map(sum, itertools.product(*lists))
    prefixes = lists[0] if j == 1 else map(sum, itertools.product(*lists[:j]))
    tail = lists[j]
    for xs in lists[j + 1 :]:
        tail = _spread(tail, len(xs), _again(xs), plus)
    entries = _again(tail) if j == len(lists) - 1 else itertools.cycle(tail)
    return _spread(prefixes, math.prod(sizes[j:]), entries, plus)


def _split(sizes: list[int]) -> int:
    """Where a block whose lists have these sizes starts its tail: at the
    shortest run of trailing lists, never the first list, whose product
    reaches _TAIL.  0, for no fold, where the block's product is under
    _FOLD, where no such run exists, or where a run of several lists, a
    copy, would hold over _TAIL ** 2 entries or be read by fewer than 8
    prefixes.  So no fold copies a long list, and a copy is repaid: read
    by 4 prefixes it cost 1.03-1.15 times the per-entry sums, and by 8,
    0.57-0.76 times, in process on lists of 500 by 1, 70 by 3, 30 by 30 by
    1 and 10 by 10 by 10 entries."""
    total = math.prod(sizes)
    if total < _FOLD:
        return 0
    j = len(sizes) - 1
    size = sizes[j]
    while size < _TAIL:
        j -= 1
        if not j:
            return 0
        size *= sizes[j]
    if j == len(sizes) - 1 or (size <= _TAIL * _TAIL and 8 * size <= total):
        return j
    return 0


def _spread(prefixes, size: int, entries, plus):
    """Each prefix `plus` each of the next `size` entries, prefix by prefix:
    one operation an entry, each prefix repeated `size` times."""
    repeated = itertools.chain.from_iterable(map(itertools.repeat, prefixes, itertools.repeat(size)))
    return map(plus, repeated, entries)


def _again(xs):
    """The entries of `xs` over and over, with no copy of them."""
    return itertools.chain.from_iterable(itertools.repeat(xs))


def _wide(r: int, c: int) -> bool:
    """Whether size-c multisets over r items are read as count vectors
    (`_cumulative`, `_digit`): r - 1 terms an entry in place of c, which
    pays, as measured, only where c is well above r.  At r = 2 the prefix
    lists' fixed cost outweighs the one lookup an entry up to c = 8
    (`_assignments` and `semi._images` summed, measured in process); at r =
    3 `semi._images` is still slower at c = 6, and from r = 4 on all three
    are faster from c = 2r on."""
    if r >= 4:
        return c >= 2 * r
    return c > (8 if r == 2 else 2 * r)


def _cumulative(r: int, c: int):
    """The size-c multisets over range(r), in reverse `multiset_enumerate`
    order, each as its cumulative counts (e_0, ..., e_{r-2}), e_w the number
    of its members <= w: the nondecreasing vectors over range(c + 1) in
    lexicographic order, streamed, so that a caller reverses its results
    and holds no list of vectors."""
    return itertools.combinations_with_replacement(range(c + 1), r - 1)


def _assignments(members, rep: _Plan, near: bool, lists) -> tuple[int, ...]:
    """Masks of a part's near assignments, in multiset order, or of its
    spanning assignments, ordered by (tree, multiset), with each member's
    trees from `lists(member, rep, near)`, a member named by its ref.

    A multiset x_0 <= x_1 <= ... puts near tree x_p on member p.  A spanning
    assignment puts the tree on the first member and a near multiset on the
    rest; up to swaps within the class the choice of carrier does not
    matter.  A lone member's assignments are its own trees.

    Where the c members are many against the r near trees (`_wide`), a
    multiset is read as its cumulative counts e_w (`_cumulative`, which
    streams them in reverse order, so the entries are reversed once built):
    members e_{w-1} to e_w - 1 hold tree w.  With P_w[p] the sum of the first p
    members' tree-w masks, its mask telescopes to P_{r-1}[c] + sum over w <
    r - 1 of (P_w - P_{w+1})[e_w]: r - 1 lookups and one `sum` an entry, by
    C-level maps.  Elsewhere each entry sums its c members' masks."""
    first = 0 if near else 1
    if len(members) == 1:
        return lists(members[0], rep, near)
    tables = [lists(x, rep, True) for x in members[first:]]
    r, c = rep.nt, len(tables)
    if _wide(r, c):
        prefix = [list(itertools.accumulate(col, initial=0)) for col in zip(*tables)]
        diffs = [list(map(operator.sub, a, b)) for a, b in zip(prefix, prefix[1:])]
        lookups = itertools.repeat(list.__getitem__)
        terms = map(map, lookups, itertools.repeat(diffs), _cumulative(r, c))
        sets = tuple(reversed(list(map(sum, terms, itertools.repeat(prefix[-1][c])))))
    else:
        multisets = itertools.combinations_with_replacement(range(r), c)
        sets = tuple([sum(map(operator.getitem, tables, mu)) for mu in multisets])
    if near:
        return sets
    spanning = lists(members[0], rep, False)
    return tuple(_sums([[spanning, sets]], len(spanning) * len(sets)))


def _blocks(
    program: list, ref: int, plan: _Plan, near: bool, lists
) -> list[list[tuple[int, ...]]]:
    """The part lists of the node `ref` of `program`, one per part in each
    block of `_layout`, whose `_sums` are its trees.  A part's trees come
    from `lists`, as in `_assignments`: a series child's are its own, and a
    class's members are its run of the node's refs; a leaf's one part is
    its own list."""
    if plan.kind == "leaf":
        return [[lists(ref, plan, near)]]
    refs, parts = program[ref][1], plan.parts
    if plan.kind == "series":
        return _layout(plan, near, lambda i, kind: lists(refs[i], parts[i], kind))
    ends = list(itertools.accumulate([cp.size for cp in parts], initial=0))
    return _layout(plan, near, lambda i, kind: _assignments(
        refs[ends[i] : ends[i + 1]], parts[i].rep_plan, kind, lists))


# ---------------------------------------------------------------------------
# Public enumeration surface
# ---------------------------------------------------------------------------


def _placed(
    memo: dict, numbering, program: list, ref: int, plan: _Plan, near: bool
) -> tuple[int, ...]:
    """The near (or spanning) trees of the node `ref` of `program` (the plan
    pass's on a tree that holds it), whose plan is `plan`, with input leaf i
    at bit `numbering[i]` (at bit i by default), built once per `memo`.

    Bind the memo, numbering and program with `partial` for one enumeration:
    no closure refers to itself, so no reference cycle keeps the memo."""
    key = (ref, near)
    if key not in memo:
        if ref < 0:
            bit = ~ref if numbering is None else numbering[~ref]
            memo[key] = (0 if near else 1 << bit,)
        else:
            lists = partial(_placed, memo, numbering, program)
            size = plan.nt if near else plan.st
            memo[key] = tuple(_sums(_blocks(program, ref, plan, near, lists), size))
    return memo[key]


def _streams(tree: Node, *nears: bool, numbering=None) -> list:
    """Per flag in `nears`, the masks of the tree's near (or spanning) trees
    in `numbering` (as in `_placed`), from its root's part lists."""
    program, ref, plan = _plans(tree).program, _root(tree), build_plan(tree)
    placed = partial(_placed, {}, numbering, program)
    blocks = [_blocks(program, ref, plan, near, placed) for near in nears]
    return [_sums(bs, plan.nt if near else plan.st) for bs, near in zip(blocks, nears)]


def oriented_spanning(g: OrientedSP) -> list[EdgeSet]:
    """Nonequivalent spanning trees of (G, s, t), in enumeration order."""
    return list(iter_oriented_spanning(g))


def oriented_both(g: OrientedSP) -> tuple[list[EdgeSet], list[EdgeSet]]:
    """Spanning and near lists; the spanning part matches `oriented_spanning`."""
    return tuple(list(map(EdgeSet, s)) for s in _streams(_tree_of(g), False, True))


def iter_oriented_spanning(g: OrientedSP):
    """Pull-based variant of `oriented_spanning`, identical sequence."""
    return map(EdgeSet, _streams(_tree_of(g), False)[0])


def iter_oriented_near(g: OrientedSP):
    """Nonequivalent near trees of (G, s, t), streamed in enumeration order."""
    return map(EdgeSet, _streams(_tree_of(g), True)[0])


# ---------------------------------------------------------------------------
# Counting (no enumeration, arbitrary precision)
# ---------------------------------------------------------------------------


def count_oriented(g: OrientedSP) -> CountPair:
    """Lengths of the oriented lists, computed by recurrence alone."""
    plan = build_plan(g)
    return CountPair(plan.st, plan.nt)


def count_total(g: OrientedSP) -> CountPair:
    """Spanning and near counts with no automorphism reduction."""
    plan = build_plan(g)
    return CountPair(plan.tau, plan.nu)


# ---------------------------------------------------------------------------
# Orbit indexing (inverse of the enumeration order)
# ---------------------------------------------------------------------------


def _index(plans: _Plans, mask: int, near: bool) -> int:
    """Enumeration position of the orbit of a near (or spanning) tree `mask`
    on the tree whose plan pass gave `plans`, in one loop over its program,
    with no helper call per node or per part but one `_digit` per class of
    several members.

    A node's kind comes from the bits of `mask` on its leaves: n - 1 for a
    spanning tree, n - 2 for a near one, and no other count is a tree.  A
    node's refs are zipped with its plan's parts: a series node's one each,
    a P class's the next `size` refs.  The parts' digits run in part order,
    the last fastest, each counted by the part's kind.  The node's kind is
    its base kind (spanning for a series node, near for a P node) unless
    exactly one part gives the other, flip kind (a child's break, a class's
    spanning member), which then names the block whose start the digits
    count from (`_starts`, built once per shape and kind and kept in
    `plans.starts` for every later rank).
    """
    # Per slot, (bits, near, rank) of its node.  A lone edge, with no
    # program, has one tree of each kind, the spanning one holding its bit.
    done, starts, kind, rank = [], plans.starts, not mask, 0
    for p, refs in plans.program:
        parts, bits, rank, odd = p.parts, 0, 0, 0
        if p.kind == "series":
            for j, (ref, part) in enumerate(zip(refs, parts)):
                if ref < 0:  # one tree of each kind, the near one without its bit
                    if mask >> ~ref & 1:
                        bits += 1
                    else:
                        odd = j
                    continue
                b, kind, digit = done[ref]
                bits += b
                if kind:
                    rank, odd = rank * part.nt + digit, j
                else:
                    rank = rank * part.st + digit
        else:
            end = 0
            for j, part in enumerate(parts):
                start, end = end, end + part.size
                if part.size > 1:
                    b, kind, digit = _digit([done[x] for x in refs[start:end]], part.rep_plan.nt)
                elif refs[start] < 0:  # an edge (no class holds two)
                    if mask >> ~refs[start] & 1:
                        bits, odd = bits + 1, j
                    continue
                else:
                    b, kind, digit = done[refs[start]]
                bits += b
                if kind:
                    rank = rank * part.nt + digit
                else:
                    rank, odd = rank * part.st + digit, j
        if bits != p.n - 1 and bits != p.n - 2:
            raise ImageNotFound("a branch's edge count fits neither kind")
        kind = bits == p.n - 2
        # The edge count admits a part of the flip kind only as the node's
        # one such part, in a node of that kind: the part names the block.
        if odd:
            if (p.code, kind) not in starts:
                starts[p.code, kind] = _starts(parts, kind)
            rank += starts[p.code, kind][odd]
        done.append((bits, kind, rank))
    if kind != near:
        raise ImageNotFound("a spanning tree where a near tree is asked for, or the reverse")
    return rank


def _digit(ranked: list, r: int) -> tuple[int, bool, int]:
    """A class's bits, kind (True for near) and digit from its members'
    (bits, near, rank): the rank of its spanning member's tree, if any,
    then of the multiset of its members' near trees, over range(r), in
    `multiset_enumerate` order.  Where the multiset is wide (`_wide`), it is
    read as its count vector, with no sort and O(r) binomials: each
    multiset before it first differs from it at the place S_w of its first
    member above some value w (S_w its members <= w), where it holds w, so
    the rank sums, over the w < r - 1, the C(r - w + k - S_w - 2, k - S_w -
    1) nondecreasing completions from w on, none where S_w = k (as in
    `semi._images`).  Elsewhere it is `multiset_rank` of the sorted ranks."""
    spans = [rank for _, near, rank in ranked if not near]
    nears = [rank for _, near, rank in ranked if near]
    k = len(nears)
    digit = spans[0] * multiset_coefficient(r, k) if spans else 0
    if not _wide(r, k):
        digit += multiset_rank(tuple(sorted(nears)), r)
    else:
        counts, below = Counter(nears), 0
        for w in range(r - 1):
            below += counts[w]
            digit += multiset_coefficient(r - w, k - below - 1)
    return sum([bits for bits, _, _ in ranked]), not spans, digit


def _located(g, es: EdgeSet, near: bool) -> int:
    """`_index` on the root of `g`, whose leaves are the input positions."""
    tree = _tree_of(g)
    if es.mask >> build_plan(tree).m:
        raise ImageNotFound("an edge outside the graph")
    return _index(_plans(tree), es.mask, near)


def spanning_tree_index(g: OrientedSP, es: EdgeSet) -> int:
    """Enumeration position of the orbit containing a spanning tree `es`."""
    return _located(g, es, False)


def near_tree_index(g: OrientedSP, es: EdgeSet) -> int:
    """Enumeration position of the orbit containing a near tree `es`."""
    return _located(g, es, True)


def _unrank(plans: _Plans, i: int, near: bool, numbering=None) -> int:
    """The mask of the near (or spanning) tree at position i on the tree
    whose plan pass gave `plans`, with input leaf j at bit `numbering[j]`
    (at bit j by default): the inverse of `_index`, in one loop over the
    program from the root down, with no list and no recursion.

    Each slot receives (kind, index) from its parent.  An index of the
    node's flip kind first finds its block by the cached starts
    (`plans.starts`, as `_index` fills them) and drops the block's start.
    The rest splits into mixed-radix digits over the parts' counts in the
    block, the last part fastest.  A series child, and a one-member class's
    member, takes its part's kind and digit.  A wider class's digit is a
    multiset of its representative's near trees (`multiset_unrank`) or, for
    a spanning assignment, the first member's spanning tree (the digit over
    M(r, c - 1)) beside a multiset on the rest, handed to the members in
    storage order, as `_assignments` lays them out.  A leaf, one tree of
    each kind, adds its bit where it takes its spanning tree."""
    program, starts = plans.program, plans.starts
    size = _count(program[-1][0], near) if program else 1
    if not 0 <= i < size:
        raise IndexError(f"tree index {i} out of range for {size} trees")
    if not program:  # a lone edge: its spanning tree holds its one bit
        return 0 if near else 1 << (0 if numbering is None else numbering[0])
    given, mask = [None] * len(program), 0
    given[-1] = (near, i)
    for slot in range(len(program) - 1, -1, -1):
        p, refs = program[slot]
        near, rank = given[slot]
        parts, end, odd = p.parts, len(refs), -1
        series = p.kind == "series"
        if near == series:  # the flip kind: part `odd` alone gives it
            if (p.code, near) not in starts:
                starts[p.code, near] = _starts(parts, near)
            at = starts[p.code, near]
            odd = bisect_right(at, rank) - 1
            rank -= at[odd]
        # The parts from the last, each taking the refs that end the run
        # left: one, or a class's `size` members (no class holds two edges).
        for j in range(len(parts) - 1, -1, -1):
            part = parts[j]
            kind = near if j == odd else not series
            rank, digit = divmod(rank, part.nt if kind else part.st)
            c = 1 if series else part.size
            end -= c
            if c == 1:
                ref = refs[end]
                if ref >= 0:
                    given[ref] = (kind, digit)
                elif not kind:
                    mask |= 1 << (~ref if numbering is None else numbering[~ref])
                continue
            r, members = part.rep_plan.nt, refs[end : end + c]
            if not kind:
                tree, digit = divmod(digit, multiset_coefficient(r, c - 1))
                given[members[0]] = (False, tree)
                members = members[1:]
            for ref, x in zip(members, multiset_unrank(digit, r, len(members))):
                given[ref] = (True, x)
    return mask


def unrank(g: OrientedSP, i: int, near: bool = False) -> EdgeSet:
    """The spanning (or near) tree at position i of the enumeration order,
    the inverse of `spanning_tree_index` (`near_tree_index`), built with no
    enumeration list.  Raises IndexError unless 0 <= i < the count."""
    return EdgeSet(_unrank(_plans(_tree_of(g)), i, near))
