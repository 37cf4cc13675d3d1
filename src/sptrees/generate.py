"""Oriented enumeration and counting of nonequivalent spanning trees.

Everything here works up to the terminal-fixing automorphisms of the
graph.  The composition rules follow the decomposition tree:

  * series node, spanning: one spanning tree per child, all unions;
  * series node, near: pick the child that carries the break, a near
    tree there, spanning trees elsewhere;
  * parallel node, near: one near tree per child, where children in the
    same oriented isomorphism class are interchangeable, so a class of
    size c with r nonequivalent near trees contributes the C(r+c-1, c)
    multisets of representative trees, one tree on each member;
  * parallel node, spanning: exactly one class carries a spanning tree
    on one member (the first in storage order) plus a size c-1 near
    multiset on the rest.

"Near tree" throughout means a two-component spanning forest that
separates the terminals; those are the objects that compose (a forest
keeping the terminals connected would close a cycle when a sibling
branch supplies the through path, and every subset brute force can
build from these compositions separates the terminals at every level).

`build_plan` is the single home of the counting arithmetic.  A plan
describes an oriented shape, not a place: one post-order loop builds one
plan per distinct canonical code, holding the vertex count, the oriented
counts (spanning, near), the counts with no automorphism reduction (tau,
nu) and the semioriented counts (spanning, near up to terminal
exchange), each from its part plans and class sizes (a class, and for
the totals a group of equal series children, in closed form).  The
`count_*` functions return fields of the root plan.  Every
"sum over j of x_j times the product of the others" goes through
`_offsets`, which divides the whole product by each y_j.  The
semioriented counts use the reversal-fixed terms: with a reversal
symmetry the semioriented count is (oriented count + fixed candidates) /
2, and the number of reversal-fixed entries of a child's list is twice
its semioriented count minus its oriented count, whichever reversal
realizes the symmetry.  The filter that enumerates the semioriented
trees lives in `semi`.

The enumeration order is deterministic: classes descend by canonical
code, assignment indices count near multisets first then spanning
choices, and tuples advance lexicographically.  `spanning_tree_index`
and `near_tree_index` invert the order: they take any spanning or near
tree edge set and return the position of its orbit's representative.

`build_plan` runs that pass once per tree object and keeps the root's
plan on the root node; the plan holds counts and parts, never a list.
Every enumeration list (a node's spanning and near trees, a class's
near and spanning assignments) is a tuple of plain int leaf masks, so
that `itertools.product` takes it without a copy, built bottom-up on
first use into a memo that belongs to one enumeration and is freed with
it.  The lists belong to the tree's own nodes (`_placed`):
a leaf's list holds its bit in a numbering the caller chooses (the
input leaf numbering for the public enumerations, the print order for
the CLI), and a P node's class members are its actual children.  Each
member's list is built from its own structure, which is the
representative's up to the class's isomorphism, so entry i of every
member's list is the same tree up to that map.  List entries combine
masks on disjoint leaf sets, so `_sums` builds every product as a sum
of masks, and no mask is moved bit by bit.  The enumerations stream the
root's trees from its part lists (`_blocks`), so large outputs are never
held in memory at once.  The index operations walk the same nodes in
input numbering, where each node's leaves are one run of positions.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import partial

from .canonical import _class_order, _partners
from .core import EdgeSet, Node, OrientedSP, Series, _tree_of, inner_postorder


class ImageNotFound(ValueError):
    """An edge set could not be located in the enumeration order.

    Raised by the index operations when the input is not a valid
    spanning or near tree of the graph; reaching it from inside the
    library signals a broken index-stability invariant.
    """


@dataclass(frozen=True)
class CountPair:
    spanning: int
    near: int


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


# ---------------------------------------------------------------------------
# Enumeration plans
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _ClassPlan:
    """Per-class data at a parallel node: `size` members, the first planned."""

    size: int
    rep_plan: "_Plan"
    nc: int
    sc: int


@dataclass(slots=True)
class _Plan:
    """Counts and parts of one oriented shape, of `kind` leaf, series or parallel.

    The plan holds no node and no position, so every subtree of one shape
    shares it, and a plan kept on its tree's root makes no reference
    cycle.  Its parts are the series children's plans, in order, or the
    parallel classes, in class order; m counts its leaves.
    st, nt are the oriented spanning and near counts, tau, nu the counts
    with no automorphism reduction, ss, sn the semioriented ones.
    `offsets[j]` is where the trees whose distinguished part is j start:
    the near trees breaking in child j of a series node, the spanning
    trees carried by class j of a parallel node.
    """

    kind: str
    m: int
    n: int
    st: int
    nt: int
    tau: int
    nu: int
    ss: int
    sn: int
    offsets: list[int] | None = None
    children: tuple["_Plan", ...] = ()
    classes: tuple[_ClassPlan, ...] = ()


def build_plan(g) -> _Plan:
    """Classes and counts of a normalized tree.

    The plan is built once per tree object and kept on its root node, as
    the codes are; it holds counts and parts only, never a tree list.
    Within one build, isomorphic subtrees share one plan wherever they
    sit; only the root's plan is kept on a node.
    """
    tree = _tree_of(g)
    plan = tree.__dict__.get("_plan")
    if plan is None:
        plan = tree.__dict__["_plan"] = _build(tree)
    return plan


def _offsets(x: list[int], y: list[int]) -> list[int]:
    """Running sums of x[j] * prod(y[i] for i != j).

    Entry a sums the terms j < a, so the last entry is the whole sum.  The
    product of the others is that of all y over y[j].  Only reversal-fixed
    class counts can be 0 (S(e,e) swaps its two near trees); with zeros in
    y, it is the product of the nonzero y for a lone zero y[j], else 0.
    """
    whole, zeros = math.prod(filter(None, y)), y.count(0)
    out = [0]
    for xj, yj in zip(x, y):
        others = 0 if zeros > (yj == 0) else whole // yj if yj else whole
        out.append(out[-1] + xj * others)
    return out


def _half(x: int) -> int:
    assert x % 2 == 0, "reversal pairs do not pair off"
    return x // 2


def _invariant_multisets(fixed: int, swapped_pairs: int, size: int) -> int:
    """Size-`size` multisets invariant under an involution on the items.

    The involution has `fixed` fixed items and `swapped_pairs` 2-cycles;
    an invariant multiset gives both members of a 2-cycle the same
    multiplicity, so pairs are drawn two at a time.
    """
    total = 0
    for j in range(size // 2 + 1):
        total += multiset_coefficient(swapped_pairs, j) * multiset_coefficient(
            fixed, size - 2 * j
        )
    return total


def _build(tree: Node) -> _Plan:
    """The bottom-up pass: one plan per canonical code of `tree`, in one loop
    over its inner nodes, children first, so that no code recurses."""
    plans = {"E": _Plan("leaf", 1, n=2, st=1, nt=1, tau=1, nu=1, ss=1, sn=1)}
    for node in inner_postorder(tree):
        code = node._code
        palindrome = code == node._rev_code
        if code not in plans:
            build = _series if isinstance(node, Series) else _parallel
            plans[code] = build(node, plans, palindrome)
    return plans[tree._code]


def _series(node: Series, plans: dict, palindrome: bool) -> _Plan:
    kids = [plans[child._code] for child in node.children]
    k = len(kids)
    sts = [c.st for c in kids]
    offsets = _offsets([c.nt for c in kids], sts)
    # g equal children of tau spanning trees and nu near forests each have
    # tau^g spanning trees and g * nu * tau^(g-1) near forests.
    groups = [(plans[code], g) for code, g in Counter(c._code for c in node.children).items()]
    taus = [p.tau ** g for p, g in groups]
    nus = [g * p.nu * p.tau ** (g - 1) for p, g in groups]
    st, nt = math.prod(sts), offsets[-1]
    plan = _Plan(
        "series", sum(c.m for c in kids), n=sum(c.n for c in kids) - (k - 1), st=st, nt=nt,
        tau=math.prod(taus), nu=_offsets(nus, taus)[-1], ss=st, sn=nt,
        offsets=offsets, children=tuple(kids),
    )
    # A reversal maps child i onto child k-1-i; the fixed candidates are
    # palindromic tuples, with a reversal-fixed tree in an odd middle.
    if palindrome:
        half = math.prod(sts[: k // 2])
        fix_sp, fix_nt = half, 0
        if k % 2:
            mid = kids[k // 2]
            fix_sp, fix_nt = half * (2 * mid.ss - mid.st), half * (2 * mid.sn - mid.nt)
        plan.ss, plan.sn = _half(st + fix_sp), _half(nt + fix_nt)
    return plan


def _parallel(node: Node, plans: dict, palindrome: bool) -> _Plan:
    classes = []
    for code, members in _class_order(node):
        rep, c = plans[code], len(members)
        nc, sc = multiset_coefficient(rep.nt, c), rep.st * multiset_coefficient(rep.nt, c - 1)
        classes.append(_ClassPlan(c, rep, nc, sc))
    ncs = [cp.nc for cp in classes]
    offsets = _offsets([cp.sc for cp in classes], ncs)
    st, nt = offsets[-1], math.prod(ncs)
    # c members of tau spanning trees and nu near forests each have nu^c
    # near forests and c * tau * nu^(c-1) forests with one spanning member.
    nus = [cp.rep_plan.nu ** cp.size for cp in classes]
    taus = [cp.size * cp.rep_plan.tau * cp.rep_plan.nu ** (cp.size - 1) for cp in classes]
    plan = _Plan(
        "parallel", sum(cp.size * cp.rep_plan.m for cp in classes),
        n=sum(cp.rep_plan.n * cp.size for cp in classes) - 2 * (len(node.children) - 1),
        st=st, nt=nt, tau=_offsets(taus, nus)[-1], nu=math.prod(nus), ss=st, sn=nt,
        offsets=offsets, classes=tuple(classes),
    )
    # A reversal maps each class onto an equal-size class (`_partners`); the
    # fixed candidates take mirror assignments on paired classes (one choice
    # per pair) and reversal-invariant ones on self-paired classes.
    if not palindrome:
        return plan
    pair_nc, fix_nc, fix_sc = 1, [], []
    for a, (b, cp) in enumerate(zip(_partners(node, node), classes)):
        rep = cp.rep_plan
        if a == b:
            # The reversal fixes 2*sn - nt of the representative's near
            # trees and swaps the other nt - sn in pairs.
            fixed_near = 2 * rep.sn - rep.nt
            swapped = rep.nt - rep.sn
            fix_nc.append(_invariant_multisets(fixed_near, swapped, cp.size))
            fix_sc.append(
                (2 * rep.ss - rep.st) * _invariant_multisets(fixed_near, swapped, cp.size - 1)
            )
        elif a < b:
            pair_nc *= cp.nc
    plan.ss = _half(st + pair_nc * _offsets(fix_sc, fix_nc)[-1])
    plan.sn = _half(nt + pair_nc * math.prod(fix_nc))
    return plan


def _sums(blocks):
    """Masks of the product of each block's lists, block by block, each
    product in product order.

    Every product combines masks on disjoint leaf sets (series
    children, parallel members), so the union of a combination is its
    sum.
    """
    return itertools.chain.from_iterable(map(sum, itertools.product(*b)) for b in blocks)


def _classes(node: Node, plan: _Plan) -> list[tuple[list[Node], _ClassPlan]]:
    """A P node's classes as (member nodes in storage order, class plan)."""
    kids = node.children
    return [([kids[i] for i in ms], cp) for (_, ms), cp in zip(_class_order(node), plan.classes)]


def _assignments(members: list[Node], cp: _ClassPlan, near: bool, lists) -> tuple[int, ...]:
    """Masks of the class's near assignments, in multiset order, or of its
    spanning assignments, ordered by (tree, multiset), with each member's
    trees from `lists(member, cp.rep_plan, near)`.

    A multiset x_0 <= x_1 <= ... puts near tree x_p on member p.  A spanning
    assignment puts the tree on the first member and a near multiset on the
    rest; up to swaps within the class the choice of carrier does not
    matter."""
    rep, first = cp.rep_plan, 0 if near else 1
    if cp.size == 1:  # the member's own trees
        return lists(members[0], rep, near)
    tables = [lists(x, rep, True) for x in members[first:]]
    multisets = itertools.combinations_with_replacement(range(rep.nt), len(tables))
    sets = tuple([sum(map(operator.getitem, tables, mu)) for mu in multisets])
    return sets if near else tuple(_sums([[lists(members[0], rep, False), sets]]))


def _blocks(node: Node, plan: _Plan, near: bool, lists) -> list[list[tuple[int, ...]]]:
    """The part lists of `node`, one per part in each block, whose `_sums` are
    its trees: the series children's spanning lists, with child j's near list
    in block j for near trees; the class near assignments, with class a's
    spanning ones in block a for spanning trees.  A part's trees come from
    `lists`, as in `_assignments`; a leaf's one part is its own list."""
    if plan.kind == "leaf":
        return [[lists(node, plan, near)]]
    series = plan.kind == "series"
    if series:
        parts, get = list(zip(node.children, plan.children)), lists
    else:
        parts, get = _classes(node, plan), partial(_assignments, lists=lists)
    if near != series:
        return [[get(x, part, not series) for x, part in parts]]
    rest = [get(x, part, not series) for x, part in parts] if len(parts) > 1 else []
    return [
        rest[:j] + [get(x, part, series)] + rest[j + 1 :] for j, (x, part) in enumerate(parts)
    ]


# ---------------------------------------------------------------------------
# Public enumeration surface
# ---------------------------------------------------------------------------


def _placed(memo: dict, numbering, node: Node, plan: _Plan, near: bool) -> tuple[int, ...]:
    """The near (or spanning) trees of `node`, whose plan is `plan`, with input
    leaf i at bit `numbering[i]` (at bit i by default), built once per `memo`.

    Bind the memo and numbering with `partial` for one enumeration: no
    closure refers to itself, so no reference cycle keeps the memo."""
    key = (id(node), near)
    if key not in memo:
        if plan.kind == "leaf":
            bit = node.index if numbering is None else numbering[node.index]
            memo[key] = (0 if near else 1 << bit,)
        else:
            memo[key] = tuple(_sums(_blocks(node, plan, near, partial(_placed, memo, numbering))))
    return memo[key]


def _streams(tree: Node, *nears: bool, numbering=None) -> list:
    """Per flag in `nears`, the masks of the tree's near (or spanning) trees
    in `numbering` (as in `_placed`), from its root's part lists."""
    plan, placed = build_plan(tree), partial(_placed, {}, numbering)
    blocks = [_blocks(tree, plan, near, placed) for near in nears]
    return [_sums(bs) for bs in blocks]


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


def _is_near(plan: _Plan, part: int) -> bool:
    """True for a near tree's edge count on `plan`'s node, False for a spanning tree's."""
    bits = part.bit_count()
    if bits != plan.n - 1 and bits != plan.n - 2:
        raise ImageNotFound("branch edge count fits neither kind")
    return bits == plan.n - 2


def _index(node: Node, plan: _Plan, mask: int, near: bool, lo: int = 0) -> int:
    """Enumeration position of the orbit of a near (or spanning) tree `mask`
    on `node`, whose leaves are the input positions lo, ..., lo + m - 1.

    Digits run over series children or parallel classes in order; the odd
    part (the child with a near tree's break, the class with a spanning
    tree's spanning member) picks the offset.  A class's digit ranks its
    spanning tree, if any, then the multiset of its members' near trees.
    """
    if plan.kind == "leaf":
        if mask != (0 if near else 1 << lo):
            raise ImageNotFound("not the leaf's near or spanning tree")
        return 0
    rank, odd = 0, None
    if plan.kind == "series":
        for j, (child, part_plan) in enumerate(zip(node.children, plan.children)):
            part = mask & ((1 << part_plan.m) - 1) << lo
            if _is_near(part_plan, part):
                if not near or odd is not None:
                    raise ImageNotFound("the break is not in exactly one branch")
                rank, odd = rank * part_plan.nt + _index(child, part_plan, part, True, lo), j
            else:
                rank = rank * part_plan.st + _index(child, part_plan, part, False, lo)
            lo += part_plan.m
    else:
        # The children run in storage order, each ranked on its class's plan.
        class_of = {code: j for j, (code, _) in enumerate(_class_order(node))}
        nears, spans = [[] for _ in class_of], [[] for _ in class_of]
        for child in node.children:
            j = class_of[child._code]
            rep = plan.classes[j].rep_plan
            part = mask & ((1 << rep.m) - 1) << lo
            is_near = _is_near(rep, part)
            (nears if is_near else spans)[j].append(_index(child, rep, part, is_near, lo))
            lo += rep.m
        for j, cp in enumerate(plan.classes):
            rep = cp.rep_plan
            digit = multiset_rank(tuple(sorted(nears[j])), rep.nt)
            if not spans[j]:
                rank = rank * cp.nc + digit
                continue
            if near or odd is not None or len(spans[j]) > 1:
                raise ImageNotFound("a spanning branch where none or another fits")
            rank = rank * cp.sc + spans[j][0] * multiset_coefficient(rep.nt, cp.size - 1) + digit
            odd = j
    if (odd is None) == (near == (plan.kind == "series")):
        raise ImageNotFound("no branch carries the break or the spanning tree")
    return rank if odd is None else plan.offsets[odd] + rank


def _located(g, es: EdgeSet, near: bool) -> int:
    """`_index` on the root of `g`, whose leaves are the input positions."""
    tree = _tree_of(g)
    plan = build_plan(tree)
    if es.mask >> plan.m:
        raise ImageNotFound("an edge outside the graph")
    return _index(tree, plan, es.mask, near)


def spanning_tree_index(g: OrientedSP, es: EdgeSet) -> int:
    """Enumeration position of the orbit containing a spanning tree `es`."""
    return _located(g, es, False)


def near_tree_index(g: OrientedSP, es: EdgeSet) -> int:
    """Enumeration position of the orbit containing a near tree `es`."""
    return _located(g, es, True)
