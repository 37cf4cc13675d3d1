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
oriented.  Each slot's items are built once from the root's own children
(`generate._placed`), in the caller's numbering (input order for the
public functions, print order for the CLI), and the emitted masks are
plain sums of them.  The index permutations come from the plans alone,
with no leaf and no numbering: where code(x) = rev_code(y), the
reversal's action on list indices, from x's lists onto y's, composes
bottom up from the children's actions (`_reversal_perms`), as the lists
themselves do.  The items and the permutations live as long as the
filter's stream; the cached plan holds none of them.

Counting needs no enumeration: `count_semioriented` reads the
semioriented count that `generate.build_plan` computes in its single
bottom-up pass, next to the oriented and total counts (the
fixed-candidate arithmetic lives there too).
"""

from __future__ import annotations

import itertools
from functools import partial

from .canonical import _class_order
from .core import EdgeSet, SemiorientedSP, _tree_of
from .generate import (
    _assignments,
    _classes,
    _placed,
    _streams,
    _sums,
    build_plan,
    multiset_enumerate,
)


# ---------------------------------------------------------------------------
# Reversal-induced index permutations
# ---------------------------------------------------------------------------


def reversal_index_perm(child, mirror, kind: str = "spanning") -> tuple[int, ...]:
    """Index action of the reversal between two tree lists.

    Entry x is the position, in `mirror`'s list, of the orbit containing
    the reversal of `child`'s x-th tree.  `mirror` must be a reversal of
    `child` (code(child) = rev_code(mirror)); every reversal bijection
    between them gives the same orbits.
    """
    if kind not in ("spanning", "near"):
        raise ValueError(f"unknown kind {kind!r}")
    x, y = _tree_of(child), _tree_of(mirror)
    if x._code != y._rev_code:
        raise ValueError("the mirror is not a reversal of the child")
    near, spanning = _reversal_perms({}, x, build_plan(x), y, build_plan(y))
    return tuple(near if kind == "near" else spanning)


def _reversal_perms(memo: dict, x, xp, y, yp) -> tuple[list[int], list[int]]:
    """The reversal's index action on x's near list and on its spanning list.

    Entry i of each is the position, in y's list of the same kind, of the
    reversal of x's i-th tree, where code(x) = rev_code(y) and `xp`, `yp`
    are their plans.  Built once per `memo` and code of x.
    """
    if xp.kind == "leaf":
        return [0], [0]
    if x._code not in memo:
        series = xp.kind == "series"
        dest, perms = _parts(memo, x, xp, y, yp)
        parts = yp.children if series else yp.classes
        radices = [(p.nt, p.st) if series else (p.nc, p.sc) for p in parts]
        # Digit kinds are 0 near, 1 spanning.  In the one-block list every
        # part's digit has kind `even`; block j of the other list flips part j's.
        even, n = int(series), len(dest)
        one = list(_sums([_block(perms, dest, radices, [even] * n, 0)]))
        per_part = list(
            _sums(
                _block(perms, dest, radices, [even ^ (i == j) for i in range(n)], yp.offsets[b])
                for j, b in enumerate(dest)
            )
        )
        memo[x._code] = (per_part, one) if series else (one, per_part)
    return memo[x._code]


def _parts(memo: dict, x, xp, y, yp) -> tuple[list[int], list]:
    """Per part of x (series child, parallel class): the part of y that the
    reversal carries it onto, and the part's (near, spanning) digit actions.

    Child i goes onto child k-1-i.  Class a goes onto the class of y whose
    representative's reversal code is class a's code.
    """
    perms = []
    if xp.kind == "series":
        for args in zip(x.children, xp.children, reversed(y.children), reversed(yp.children)):
            perms.append(_reversal_perms(memo, *args))
        return list(range(len(perms) - 1, -1, -1)), perms
    order_y = zip(_class_order(y), yp.classes)
    reps_y = [(y.children[members[0]], cp.rep_plan) for (_, members), cp in order_y]
    at = {rep._rev_code: b for b, (rep, _) in enumerate(reps_y)}
    dest = []
    for cp, (code, members) in zip(xp.classes, _class_order(x)):
        dest.append(at[code])
        rho = _reversal_perms(memo, x.children[members[0]], cp.rep_plan, *reps_y[dest[-1]])
        perms.append(_assignment_perm(cp.size, *rho))
    return dest, perms


def _block(perms, dest, radices, kinds, offset: int) -> list[list[int]]:
    """One block of x's list, moved into y's list: its `_sums` are the
    positions, in y's list, of the reversals of the block's trees.

    Part i of x, with its digit of kind kinds[i], lands on part dest[i] of
    y, whose digit radices are radices[dest[i]]; y's digits run in its part
    order, the last fastest, from `offset`.
    """
    width = [0] * len(dest)
    for i, b in enumerate(dest):
        width[b] = radices[b][kinds[i]]
    place = [1] * len(dest)
    for b in range(len(dest) - 1, 0, -1):
        place[b - 1] = place[b] * width[b]
    return [[offset]] + [[v * place[b] for v in perms[i][kinds[i]]] for i, b in enumerate(dest)]


def _assignment_perm(size: int, near_perm: list[int], span_perm: list[int]):
    """A class's near and spanning assignment indices, mapped into its
    partner class's, from its representative's near and spanning actions.

    Paired classes have identical shapes.  A near multiset goes to the
    sorted images of its trees; a spanning choice, ordered by (tree,
    multiset), goes to the image tree beside the image multiset.  A
    one-member class's assignments are its representative's trees.
    """
    if size == 1:
        return near_perm, span_perm

    def images(k: int) -> list[int]:
        rank = {mu: i for i, mu in enumerate(multiset_enumerate(len(near_perm), k))}
        return [rank[tuple(sorted(map(near_perm.__getitem__, mu)))] for mu in rank]

    rest = images(size - 1)
    return images(size), [s * len(rest) + i for s in span_perm for i in rest]


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
    """Masks of the semioriented spanning trees in `numbering`, as in `generate._placed`."""
    plan = build_plan(tree)
    if plan.kind == "leaf" or tree._code != tree._rev_code:
        return _streams(tree, False, numbering=numbering)[0]
    target, perms = _parts({}, tree, plan, tree, plan)
    slots = _series_slots if plan.kind == "series" else _class_slots
    return _filtered(*slots(tree, plan, target, perms, partial(_placed, {}, numbering)))


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


def _series_slots(tree, plan, target, perms, placed):
    """Slots of the series filter: child i's spanning trees, reversed onto child k-1-i."""
    items = [placed(x, part, False) for x, part in zip(tree.children, plan.children)]
    spanning = [perm for _, perm in perms]
    return items, target, spanning, [[range(len(lst)) for lst in items]]


def _class_slots(tree, plan, target, perms, placed):
    """Slots of the parallel filter: a class's assignments, near then spanning.

    Block a lets class a carry the spanning tree and the others a near
    multiset, so the blocks run in the oriented order.
    """
    classes = plan.classes
    perms = [near + [cp.nc + s for s in span] for cp, (near, span) in zip(classes, perms)]
    items, get = [], partial(_assignments, lists=placed)
    for members, cp in _classes(tree, plan):  # a loop: one frame less below it
        items.append(get(members, cp, True) + get(members, cp, False))
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
