"""Semioriented enumeration: spanning trees up to terminal exchange.

When no automorphism can exchange the terminals, the semioriented
output is bit-identical to the oriented one.  Otherwise the oriented
enumeration produces the surviving trees in pairs related by the
reversal symmetry, and a top-level lexicographic filter keeps exactly
one of each pair: a candidate (as its tuple of per-child tree indices,
or per-class assignment indices) is emitted iff it compares >= its
partner under the reversal-induced index permutations.  The comparison
uses the full tuple, including the middle child of an odd series chain
and self-paired parallel classes, so a candidate whose outer positions
are palindromic is still paired off through its middle entry.  All
recursive calls below the top level stay oriented.

Counting needs no enumeration: `count_semioriented` reads the
semioriented count that `generate.build_plan` computes in its single
bottom-up pass, next to the oriented and total counts (the
fixed-candidate arithmetic lives there too).
"""

from __future__ import annotations

import itertools

from .canonical import MirrorPairing, mirror_pairing
from .core import EdgeSet, SemiorientedSP, _tree_of
from .generate import (
    _class_near_sets,
    _class_span_sets,
    _near_index,
    _near_list,
    _span_index,
    _spanning_list,
    build_plan,
    multiset_coefficient,
    multiset_enumerate,
    multiset_rank,
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
    return tuple(_index_perm(build_plan(child), build_plan(mirror), r, kind))


def _index_perm(src_plan, dst_plan, r: dict[int, int], kind: str) -> list[int]:
    if kind == "spanning":
        source, locate = _spanning_list(src_plan), _span_index
    elif kind == "near":
        source, locate = _near_list(src_plan), _near_index
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return [locate(dst_plan, es.mapped(r).mask) for es in source]


# ---------------------------------------------------------------------------
# Enumeration with the top-level filter
# ---------------------------------------------------------------------------


def semioriented_spanning(g: SemiorientedSP) -> list[EdgeSet]:
    """Nonequivalent spanning trees of (G, {s, t}), in enumeration order."""
    return list(iter_semioriented_spanning(g))


def iter_semioriented_spanning(g: SemiorientedSP):
    tree = _tree_of(g)
    plan = build_plan(tree)
    pairing = mirror_pairing(tree)
    if pairing is None or pairing.kind == "leaf":
        yield from _spanning_list(plan)
        return
    if pairing.kind == "series":
        yield from _filtered_series(plan, pairing)
    else:
        yield from _filtered_parallel(plan, pairing)


def _filtered_series(plan, pairing: MirrorPairing):
    children = plan.children
    k = len(children)
    lists = [_spanning_list(c) for c in children]
    perms = [
        _index_perm(children[i], children[k - 1 - i], pairing.series_maps[i], "spanning")
        for i in range(k)
    ]
    ranges = [range(len(lst)) for lst in lists]
    for tup in itertools.product(*ranges):
        partner = tuple(perms[k - 1 - p][tup[k - 1 - p]] for p in range(k))
        if tup >= partner:
            mask = 0
            for p, x in enumerate(tup):
                mask |= lists[p][x].mask
            yield EdgeSet(mask)


def _assignment_perm(cp_a, cp_b, r: dict[int, int]) -> list[int]:
    """Map class a's assignment indices into class b's, through reversal `r`.

    Assignment indices put the near multisets first, then the spanning
    choices ordered by (tree, multiset); paired classes have identical
    shapes, so the image index is computed in class b's own space.
    """
    near_perm = _index_perm(cp_a.rep_plan, cp_b.rep_plan, r, "near")
    span_perm = _index_perm(cp_a.rep_plan, cp_b.rep_plan, r, "spanning")
    nt_b = cp_b.rep_plan.nt
    out: list[int] = []
    for mu in multiset_enumerate(cp_a.rep_plan.nt, cp_a.size):
        image = tuple(sorted(near_perm[x] for x in mu))
        out.append(multiset_rank(image, nt_b))
    block = multiset_coefficient(nt_b, cp_b.size - 1)
    for s in range(cp_a.rep_plan.st):
        for mu in multiset_enumerate(cp_a.rep_plan.nt, cp_a.size - 1):
            image = tuple(sorted(near_perm[x] for x in mu))
            out.append(cp_b.nc + span_perm[s] * block + multiset_rank(image, nt_b))
    return out


def _filtered_parallel(plan, pairing: MirrorPairing):
    classes = plan.classes
    rho: list[list[int] | None] = [None] * len(classes)
    target: list[int] = list(range(len(classes)))
    for a, b, r in pairing.class_pairs:
        rho[a] = _assignment_perm(classes[a], classes[b], r)
        target[a] = b
        if b != a:
            rho[b] = [0] * len(rho[a])
            for src, dst in enumerate(rho[a]):
                rho[b][dst] = src
            target[b] = a
    near_sets = [_class_near_sets(cp) for cp in classes]
    span_sets = [_class_span_sets(cp) for cp in classes]
    for span_class in range(len(classes)):
        ranges = []
        for j, cp in enumerate(classes):
            if j == span_class:
                ranges.append(range(cp.nc, cp.nc + cp.sc))
            else:
                ranges.append(range(cp.nc))
        for tup in itertools.product(*ranges):
            partner = [0] * len(classes)
            for a in range(len(classes)):
                partner[target[a]] = rho[a][tup[a]]
            if tup >= tuple(partner):
                mask = 0
                for j, digit in enumerate(tup):
                    cp = classes[j]
                    es = near_sets[j][digit] if digit < cp.nc else span_sets[j][digit - cp.nc]
                    mask |= es.mask
                yield EdgeSet(mask)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def count_semioriented(g: SemiorientedSP) -> int:
    """Length of the semioriented spanning list, by recurrence alone."""
    return build_plan(g).ss
