"""Oriented enumeration and counting of nonequivalent spanning trees.

Everything here works up to the terminal-fixing automorphisms of the
graph.  The composition rules follow the decomposition tree:

  * series node, spanning: one spanning tree per child, all unions;
  * series node, near: pick the child that carries the break, a near
    tree there, spanning trees elsewhere;
  * parallel node, near: one near tree per child, where children in the
    same oriented isomorphism class are interchangeable, so a class of
    size c with r nonequivalent near trees contributes the C(r+c-1, c)
    multisets of representative trees, placed on members through the
    stored class bijections;
  * parallel node, spanning: exactly one class carries a spanning tree
    on one member (the representative's trees, placed on the first
    member) plus a size c-1 near multiset on the rest.

"Near tree" throughout means a two-component spanning forest that
separates the terminals; those are the objects that compose (a forest
keeping the terminals connected would close a cycle when a sibling
branch supplies the through path, and every subset brute force can
build from these compositions separates the terminals at every level).

`build_plan` is the single home of the counting arithmetic.  One
bottom-up pass fills every plan node with its vertex count, the
oriented counts (spanning, near), the counts with no automorphism
reduction (tau, nu) and the semioriented counts (spanning, near up to
terminal exchange), each from its child plans and class sizes; the
`count_*` functions return fields of the root plan.  Every "sum over j
of x_j times the product of the others" goes through `_offsets`, in a
linear number of products.  The semioriented counts use the
reversal-fixed terms: with a reversal symmetry the semioriented count
is (oriented count + fixed candidates) / 2, and the number of
reversal-fixed entries of a child's list is twice its semioriented
count minus its oriented count, whichever reversal realizes the
symmetry.  The filter that enumerates the semioriented trees lives in
`semi`.

The enumeration order is deterministic: classes descend by canonical
code, assignment indices count near multisets first then spanning
choices, and tuples advance lexicographically.  `spanning_tree_index`
and `near_tree_index` invert the order: they take any spanning or near
tree edge set and return the position of its orbit's representative.

Every plan list (a node's spanning and near trees, a class's near and
spanning assignments) holds plain int leaf masks, materialized
bottom-up on first use.  Each list entry combines masks on disjoint
leaf spans, so `_sums` builds every product as a sum of masks.  A
class's members get the representative's trees from per-member image
tables, one leaf map per (tree, member).  Masks become `EdgeSet`s only
where the public functions hand trees out; the `iter_*` variants stream
the root composition from the same child lists so large outputs never
have to be held in memory at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .canonical import invert_map, partition_classes
from .core import EdgeSet, Leaf, Node, OrientedSP, Series, _tree_of, mask_image


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
    """Per-class data at a parallel node."""

    members: tuple[int, ...]
    rep_plan: "_Plan"
    to_rep: tuple[dict[int, int], ...]
    place: tuple[dict[int, int], ...]
    nc: int = 0
    sc: int = 0
    near_sets: list[int] | None = None
    span_sets: list[int] | None = None

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(slots=True)
class _Plan:
    """Counts and enumeration data of one node.

    st, nt are the oriented spanning and near counts, tau, nu the counts
    with no automorphism reduction, ss, sn the semioriented ones.
    `offsets[j]` is where the trees whose distinguished part is j start:
    the near trees breaking in child j of a series node, the spanning
    trees carried by class j of a parallel node.
    """

    node: Node
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
    sp_cache: list[int] | None = None
    nt_cache: list[int] | None = None

    @property
    def kind(self) -> str:
        if isinstance(self.node, Leaf):
            return "leaf"
        return "series" if isinstance(self.node, Series) else "parallel"


def build_plan(g) -> _Plan:
    """Precompute classes, bijections, and counts for a normalized tree."""
    return _build(_tree_of(g))


def _offsets(x: list[int], y: list[int]) -> list[int]:
    """Running sums of x[j] * prod(y[i] for i != j), from prefix and suffix products.

    Entry a sums the terms j < a, so the last entry is the whole sum.
    """
    suffix = [1] * (len(y) + 1)
    for i in range(len(y) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * y[i]
    out, prefix = [0], 1
    for j, xj in enumerate(x):
        out.append(out[-1] + xj * prefix * suffix[j + 1])
        prefix *= y[j]
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


def _build(node: Node) -> _Plan:
    """The bottom-up pass: every count of `node` from its child plans and class sizes."""
    if isinstance(node, Leaf):
        return _Plan(node, n=2, st=1, nt=1, tau=1, nu=1, ss=1, sn=1)
    if isinstance(node, Series):
        kids = list(map(_build, node.children))  # map adds no frame per level, see core
        k = len(kids)
        sts = [c.st for c in kids]
        taus = [c.tau for c in kids]
        offsets = _offsets([c.nt for c in kids], sts)
        st, nt = math.prod(sts), offsets[-1]
        plan = _Plan(
            node,
            n=sum(c.n for c in kids) - (k - 1),
            st=st,
            nt=nt,
            tau=math.prod(taus),
            nu=_offsets([c.nu for c in kids], taus)[-1],
            ss=st,
            sn=nt,
            offsets=offsets,
            children=tuple(kids),
        )
        # A reversal maps child i onto child k-1-i; the fixed candidates are
        # palindromic tuples, with a reversal-fixed tree in an odd middle.
        facing = zip(node.children, reversed(node.children))
        if all(a._code == b._rev_code for a, b in facing):
            half = math.prod(sts[: k // 2])
            fix_sp, fix_nt = half, 0
            if k % 2:
                mid = kids[k // 2]
                fix_sp, fix_nt = half * (2 * mid.ss - mid.st), half * (2 * mid.sn - mid.nt)
            plan.ss, plan.sn = _half(st + fix_sp), _half(nt + fix_nt)
        return plan

    classes = []
    for cls in partition_classes(node).classes:
        rep_plan = _build(node.children[cls.representative])
        to_rep = tuple(cls.to_rep[pos] for pos in cls.members)
        place = tuple(invert_map(m) for m in to_rep)
        cp = _ClassPlan(cls.members, rep_plan, to_rep, place)
        cp.nc = multiset_coefficient(rep_plan.nt, cp.size)
        cp.sc = rep_plan.st * multiset_coefficient(rep_plan.nt, cp.size - 1)
        classes.append(cp)
    ncs = [cp.nc for cp in classes]
    offsets = _offsets([cp.sc for cp in classes], ncs)
    st, nt = offsets[-1], math.prod(ncs)
    # Members of a class share the representative's total counts.
    taus = [cp.rep_plan.tau for cp in classes for _ in cp.members]
    nus = [cp.rep_plan.nu for cp in classes for _ in cp.members]
    plan = _Plan(
        node,
        n=sum(cp.rep_plan.n * cp.size for cp in classes) - 2 * (len(node.children) - 1),
        st=st,
        nt=nt,
        tau=_offsets(taus, nus)[-1],
        nu=math.prod(nus),
        ss=st,
        sn=nt,
        offsets=offsets,
        classes=tuple(classes),
    )
    # A reversal maps each class onto an equal-size class; the fixed
    # candidates take mirror assignments on paired classes (one choice
    # per pair) and reversal-invariant ones on self-paired classes.
    size_of = {cp.rep_plan.node._code: cp.size for cp in classes}
    if any(size_of.get(cp.rep_plan.node._rev_code) != cp.size for cp in classes):
        return plan
    pair_nc, seen, fix_nc, fix_sc = 1, set(), [], []
    for cp in classes:
        rep = cp.rep_plan
        code, rev = rep.node._code, rep.node._rev_code
        if code == rev:
            # The reversal fixes 2*sn - nt of the representative's near
            # trees and swaps the other nt - sn in pairs.
            fixed_near = 2 * rep.sn - rep.nt
            swapped = rep.nt - rep.sn
            fix_nc.append(_invariant_multisets(fixed_near, swapped, cp.size))
            fix_sc.append(
                (2 * rep.ss - rep.st) * _invariant_multisets(fixed_near, swapped, cp.size - 1)
            )
        elif code not in seen:
            seen.add(rev)
            pair_nc *= cp.nc
    plan.ss = _half(st + pair_nc * _offsets(fix_sc, fix_nc)[-1])
    plan.sn = _half(nt + pair_nc * math.prod(fix_nc))
    return plan


def _sums(lists):
    """Masks of the product of `lists`, in product order.

    Every product combines masks on disjoint leaf spans (series
    children, parallel members), so the union of a combination is its
    sum.
    """
    return map(sum, itertools.product(*lists))


def _placed_multisets(cp: _ClassPlan, first: int) -> list[int]:
    """Masks of the near multisets on members `first`, `first`+1, ...

    Table p holds the representative's near trees placed on member p
    once; a multiset x_0 <= x_1 <= ... puts tree x_p on member p.
    """
    rep_near = _near_list(cp.rep_plan)
    tables = [[mask_image(x, place) for x in rep_near] for place in cp.place[first:]]
    multisets = itertools.combinations_with_replacement(range(len(rep_near)), len(tables))
    return [sum(map(list.__getitem__, tables, mu)) for mu in multisets]


def _class_near_sets(cp: _ClassPlan) -> list[int]:
    """Masks of the class's near assignments, in multiset order."""
    if cp.near_sets is None:
        cp.near_sets = _placed_multisets(cp, 0)
    return cp.near_sets


def _class_span_sets(cp: _ClassPlan) -> list[int]:
    """Masks of the class's spanning assignments, ordered by (tree, multiset).

    The spanning tree goes on the first member, the near multiset on the
    rest; up to the swap automorphisms within the class the choice of
    carrier does not matter.
    """
    if cp.span_sets is None:
        heads = [mask_image(x, cp.place[0]) for x in _spanning_list(cp.rep_plan)]
        cp.span_sets = list(_sums([heads, _placed_multisets(cp, 1)]))
    return cp.span_sets


def _spanning_list(plan: _Plan) -> list[int]:
    if plan.sp_cache is None:
        plan.sp_cache = list(_iter_spanning(plan))
    return plan.sp_cache


def _near_list(plan: _Plan) -> list[int]:
    if plan.nt_cache is None:
        plan.nt_cache = list(_iter_near(plan))
    return plan.nt_cache


def _iter_spanning(plan: _Plan):
    """Stream the spanning-tree masks; child lists are materialized once."""
    if plan.kind == "leaf":
        yield 1 << plan.node.index
    elif plan.kind == "series":
        yield from _sums([_spanning_list(c) for c in plan.children])
    else:
        for a in range(len(plan.classes)):
            yield from _sums(
                [
                    _class_span_sets(cp) if j == a else _class_near_sets(cp)
                    for j, cp in enumerate(plan.classes)
                ]
            )


def _iter_near(plan: _Plan):
    if plan.kind == "leaf":
        yield 0
    elif plan.kind == "series":
        lists = [_spanning_list(c) for c in plan.children]
        for j, child in enumerate(plan.children):
            yield from _sums(lists[:j] + [_near_list(child)] + lists[j + 1 :])
    else:
        yield from _sums([_class_near_sets(cp) for cp in plan.classes])


# ---------------------------------------------------------------------------
# Public enumeration surface
# ---------------------------------------------------------------------------


def oriented_spanning(g: OrientedSP) -> list[EdgeSet]:
    """Nonequivalent spanning trees of (G, s, t), in enumeration order."""
    return list(map(EdgeSet, _spanning_list(build_plan(g))))


def oriented_both(g: OrientedSP) -> tuple[list[EdgeSet], list[EdgeSet]]:
    """Spanning and near lists; the spanning part matches `oriented_spanning`."""
    plan = build_plan(g)
    return list(map(EdgeSet, _spanning_list(plan))), list(map(EdgeSet, _near_list(plan)))


def iter_oriented_spanning(g: OrientedSP):
    """Pull-based variant of `oriented_spanning`, identical sequence."""
    return map(EdgeSet, _iter_spanning(build_plan(g)))


def iter_oriented_near(g: OrientedSP):
    return map(EdgeSet, _iter_near(build_plan(g)))


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


def _span_mask(node: Node) -> int:
    lo, hi = node.span
    return ((1 << hi) - 1) ^ ((1 << lo) - 1)


def _span_index(plan: _Plan, mask: int) -> int:
    if plan.kind == "leaf":
        if mask != 1 << plan.node.index:
            raise ImageNotFound("not the leaf's spanning tree")
        return 0
    if plan.kind == "series":
        rank = 0
        for child in plan.children:
            digit = _span_index(child, mask & _span_mask(child.node))
            rank = rank * child.st + digit
        return rank
    digits, span_class = _parallel_digits(plan, mask)
    if span_class is None:
        raise ImageNotFound("no branch carries a spanning tree")
    inner = 0
    for j, cp in enumerate(plan.classes):
        radix = cp.sc if j == span_class else cp.nc
        inner = inner * radix + digits[j]
    return plan.offsets[span_class] + inner


def _near_index(plan: _Plan, mask: int) -> int:
    if plan.kind == "leaf":
        if mask != 0:
            raise ImageNotFound("a leaf's near tree is empty")
        return 0
    if plan.kind == "series":
        parts = [mask & _span_mask(c.node) for c in plan.children]
        break_at = None
        for j, (child, part) in enumerate(zip(plan.children, parts)):
            bits = part.bit_count()
            if bits == child.n - 2:
                if break_at is not None:
                    raise ImageNotFound("two branches carry the break")
                break_at = j
            elif bits != child.n - 1:
                raise ImageNotFound("branch edge count fits neither kind")
        if break_at is None:
            raise ImageNotFound("no branch carries the break")
        inner = 0
        for j, (child, part) in enumerate(zip(plan.children, parts)):
            if j == break_at:
                inner = inner * child.nt + _near_index(child, part)
            else:
                inner = inner * child.st + _span_index(child, part)
        return plan.offsets[break_at] + inner
    digits, span_class = _parallel_digits(plan, mask)
    if span_class is not None:
        raise ImageNotFound("a near tree cannot contain a spanning branch")
    rank = 0
    for cp, digit in zip(plan.classes, digits):
        rank = rank * cp.nc + digit
    return rank


def _parallel_digits(plan: _Plan, mask: int) -> tuple[list[int], int | None]:
    """Per-class assignment digits for an edge set at a parallel node.

    Exactly one member over all classes may carry a spanning tree; the
    returned digit for that class indexes its spanning assignments, all
    other digits index near assignments.
    """
    digits: list[int] = []
    span_class: int | None = None
    for idx, cp in enumerate(plan.classes):
        rep = cp.rep_plan
        span_tree_idx: int | None = None
        near_indices: list[int] = []
        for p, member_pos in enumerate(cp.members):
            child_node = plan.node.children[member_pos]
            part = mask & _span_mask(child_node)
            rep_mask = mask_image(part, cp.to_rep[p])
            bits = rep_mask.bit_count()
            if bits == rep.n - 1:
                if span_tree_idx is not None or span_class is not None:
                    raise ImageNotFound("two branches carry spanning trees")
                span_tree_idx = _span_index(rep, rep_mask)
            elif bits == rep.n - 2:
                near_indices.append(_near_index(rep, rep_mask))
            else:
                raise ImageNotFound("branch edge count fits neither kind")
        near_indices.sort()
        if span_tree_idx is not None:
            span_class = idx
            digit = span_tree_idx * multiset_coefficient(rep.nt, cp.size - 1)
            digit += multiset_rank(tuple(near_indices), rep.nt)
        else:
            digit = multiset_rank(tuple(near_indices), rep.nt)
        digits.append(digit)
    return digits, span_class


def spanning_tree_index(g: OrientedSP, es: EdgeSet) -> int:
    """Enumeration position of the orbit containing a spanning tree `es`."""
    return _span_index(build_plan(g), es.mask)


def near_tree_index(g: OrientedSP, es: EdgeSet) -> int:
    """Enumeration position of the orbit containing a near tree `es`."""
    return _near_index(build_plan(g), es.mask)
