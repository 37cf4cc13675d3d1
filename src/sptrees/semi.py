"""Semioriented enumeration: spanning trees up to terminal exchange.

When no automorphism can exchange the terminals, the semioriented
output is bit-identical to the oriented one.  Otherwise the oriented
enumeration produces the surviving trees in pairs related by the
reversal symmetry, and one top-level lexicographic filter, `_filtered`,
keeps exactly one of each pair.  It runs over slots: each slot has a
list of items (leaf masks from `generate`'s lists), a target slot
and an index permutation, both induced by the reversal.  A candidate
(one item index per slot) is emitted iff it compares >= its partner.
At a series root the slots are the children and their spanning trees;
at a parallel root they are the classes and their assignments, near
multisets first, then spanning choices, with one block of candidates
per spanning class.  The comparison uses the full tuple, including the
middle child of an odd series chain and self-paired parallel classes,
so a candidate whose outer positions are palindromic is still paired
off through its middle entry.  All lists below the top level stay
oriented.  Each slot's items are built once, in the caller's numbering
(`generate._placer`: input order for the public functions, print order
for the CLI), and the emitted masks are plain sums of them.  The index
permutations read the same items: the reversal maps are renumbered
once, at the root, from that numbering into `generate`'s canonical leaf
layout, where `generate._index` locates each image.  The items live as
long as the filter's stream; the cached plan holds none of them.

Counting needs no enumeration: `count_semioriented` reads the
semioriented count that `generate.build_plan` computes in its single
bottom-up pass, next to the oriented and total counts (the
fixed-candidate arithmetic lives there too).
"""

from __future__ import annotations

import itertools

from .canonical import mirror_pairing
from .core import EdgeSet, SemiorientedSP, _tree_of, mask_image
from .generate import (
    _assignments,
    _index,
    _placer,
    _segments,
    _streams,
    build_plan,
    multiset_enumerate,
)


# ---------------------------------------------------------------------------
# Reversal-induced index permutations
# ---------------------------------------------------------------------------


def reversal_index_perm(
    child, mirror, r: dict[int, int], kind: str = "spanning"
) -> tuple[int, ...]:
    """Index action of a reversal bijection between two tree lists.

    Entry x is the position, in `mirror`'s list, of the orbit containing
    the image under `r` of `child`'s x-th tree.  Total whenever the
    enumeration covers every orbit; an unlocatable image raises
    ImageNotFound and means the index-stability contract is broken.
    """
    if kind not in ("spanning", "near"):
        raise ValueError(f"unknown kind {kind!r}")
    trees = _placer(child)(build_plan(child), kind == "near")
    dst = _renumbered(r, _position(mirror))
    return tuple(_index_perm(trees, build_plan(mirror), dst, kind == "near"))


def _position(tree) -> dict[int, int]:
    """Canonical layout position of each input leaf index of the tree."""
    return {i + d: c + d for c, w, i in _segments(tree) for d in range(w.bit_length())}


def _renumbered(r: dict[int, int], dst: dict[int, int], numbering=None) -> dict[int, int]:
    """`r` from `numbering` (as in `generate._segments`) into the canonical positions `dst`."""
    return {a if numbering is None else numbering[a]: dst[b] for a, b in r.items()}


def _index_perm(trees: list[int], dst_plan, r: dict[int, int], near: bool) -> list[int]:
    """Enumeration position in `dst_plan` of the orbit of each tree's image under `r`."""
    return [_index(dst_plan, mask_image(x, r), near) for x in trees]


# ---------------------------------------------------------------------------
# Enumeration with the top-level filter
# ---------------------------------------------------------------------------


def semioriented_spanning(g: SemiorientedSP) -> list[EdgeSet]:
    """Nonequivalent spanning trees of (G, {s, t}), in enumeration order."""
    return list(iter_semioriented_spanning(g))


def iter_semioriented_spanning(g: SemiorientedSP):
    """Pull-based variant of `semioriented_spanning`, identical sequence."""
    return map(EdgeSet, _masks(_tree_of(g)))


def _masks(tree, numbering=None):
    """Masks of the semioriented spanning trees in `numbering`, as in `generate._segments`."""
    plan = build_plan(tree)
    pairing = mirror_pairing(tree)
    if pairing is None or pairing.kind == "leaf":
        return _streams(tree, False, numbering=numbering)[0]
    at, placed = _position(tree), _placer(tree, numbering)
    if pairing.kind == "series":
        maps = [_renumbered(r, at, numbering) for r in pairing.series_maps]
        slots = _series_slots(plan.children, maps, placed)
    else:
        pairs = [(a, b, _renumbered(r, at, numbering)) for a, b, r in pairing.class_pairs]
        slots = _class_slots(plan.classes, pairs, placed)
    return _filtered(*slots)


def _filtered(items, target, perms, blocks):
    """Masks of the candidates that compare >= their reversal partner.

    A candidate picks index x_a into slot a's `items`, with each slot
    ranging over its block's ranges; the reversal carries slot a to slot
    `target[a]` and its index x_a to `perms[a][x_a]`.  The slots cover
    disjoint leaf spans, so the candidate's mask is the sum of its items.
    """
    partner = [0] * len(items)
    for ranges in blocks:
        for tup in itertools.product(*ranges):
            for a, x in enumerate(tup):
                partner[target[a]] = perms[a][x]
            if tup >= tuple(partner):
                yield sum(map(list.__getitem__, items, tup))


def _series_slots(children, maps, placed):
    """Slots of the series filter: child i's spanning trees, reversed onto child k-1-i."""
    k = len(children)
    items = [placed(c, False) for c in children]
    perms = [_index_perm(items[i], children[k - 1 - i], maps[i], False) for i in range(k)]
    return items, range(k - 1, -1, -1), perms, [[range(len(lst)) for lst in items]]


def _assignment_perm(cp_a, cp_b, r: dict[int, int], placed) -> list[int]:
    """Map class a's assignment indices into class b's, through reversal `r`.

    Assignment indices put the near multisets first, then the spanning
    choices ordered by (tree, multiset); paired classes have identical
    shapes, so the image index is computed in class b's own space; the
    images of the near multisets beside a spanning tree do not depend on it.
    """
    near_perm = _index_perm(placed(cp_a.rep_plan, True), cp_b.rep_plan, r, True)
    span_perm = _index_perm(placed(cp_a.rep_plan, False), cp_b.rep_plan, r, False)

    def images(size: int) -> list[int]:
        rank = {mu: i for i, mu in enumerate(multiset_enumerate(len(near_perm), size))}
        return [rank[tuple(sorted(map(near_perm.__getitem__, mu)))] for mu in rank]

    out, rest = images(cp_a.size), images(cp_a.size - 1)
    for s in span_perm:
        out.extend(cp_b.nc + s * len(rest) + i for i in rest)
    return out


def _class_slots(classes, pairs, placed):
    """Slots of the parallel filter: a class's assignments, near then spanning.

    Block a lets class a carry the spanning tree and the others a near
    multiset, so the blocks run in the oriented order.
    """
    perms: list = [None] * len(classes)
    target = list(range(len(classes)))
    for a, b, r in pairs:
        perms[a] = _assignment_perm(classes[a], classes[b], r, placed)
        target[a] = b
        if b != a:
            perms[b] = [0] * len(perms[a])
            for src, dst in enumerate(perms[a]):
                perms[b][dst] = src
            target[b] = a
    items = [
        _assignments(cp, True, 0, placed) + _assignments(cp, False, 0, placed) for cp in classes
    ]
    blocks = [
        [range(cp.nc, cp.nc + cp.sc) if j == a else range(cp.nc) for j, cp in enumerate(classes)]
        for a in range(len(classes))
    ]
    return items, target, perms, blocks


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def count_semioriented(g: SemiorientedSP) -> int:
    """Length of the semioriented spanning list, by recurrence alone."""
    return build_plan(g).ss
