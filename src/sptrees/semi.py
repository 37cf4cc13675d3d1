"""Semioriented enumeration: spanning trees up to terminal exchange.

When no automorphism can exchange the terminals, the semioriented
output is bit-identical to the oriented one.  Otherwise the oriented
enumeration produces the surviving trees in pairs related by the
reversal symmetry, and `_masks` keeps one of each pair: it passes the
oriented root stream through `itertools.compress`.  A root tree's key is
its tuple of indices into the root's part lists (`generate._blocks`, a
class's spanning assignments numbered after its near ones).  The
reversal carries part i onto part dest[i] and its index through the
part's index action, which gives the partner's key; a tree is kept iff
its key compares >= its partner's.  Keys and partners are
`itertools.product`s over each block's index ranges and actions, so no
Python code runs per tree.  The comparison uses the full tuple, including
the middle child of an odd series chain and self-paired parallel classes,
so a tree whose outer positions are palindromic is still paired off
through its middle entry.  All lists below the top level stay oriented.

The index actions come from the plans alone, with no leaf and no
numbering: where code(x) = rev_code(y), the reversal's action on list
indices, from x's lists onto y's, composes bottom up from the children's
actions (`_reversal_perms`), as the lists themselves do, and
`canonical._partners` pairs the classes.  The actions live as long as
the filter's stream; the cached plan holds none of them.

Counting needs no enumeration: `count_semioriented` reads the
semioriented count that `generate.build_plan` computes in its single
bottom-up pass, next to the oriented and total counts (the
fixed-candidate arithmetic lives there too).
"""

from __future__ import annotations

import operator
from itertools import chain, compress, product

from .canonical import _class_order, _partners
from .core import EdgeSet, SemiorientedSP, _tree_of
from .generate import _streams, _sums, build_plan, multiset_enumerate


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
    return near if kind == "near" else spanning


def _reversal_perms(memo: dict, x, xp, y, yp) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The reversal's index action on x's near list and on its spanning list.

    Entry i of each is the position, in y's list of the same kind, of the
    reversal of x's i-th tree, where code(x) = rev_code(y) and `xp`, `yp`
    are their plans.  Built once per `memo` and code of x.
    """
    if xp.kind == "leaf":
        return (0,), (0,)
    if x._code not in memo:
        series = xp.kind == "series"
        dest, perms = _parts(memo, x, xp, y, yp)
        parts = yp.children if series else yp.classes
        radices = [(p.nt, p.st) if series else (p.nc, p.sc) for p in parts]
        # Digit kinds are 0 near, 1 spanning.  In the one-block list every
        # part's digit has kind `even`; block j of the other list flips part j's.
        even, n = int(series), len(dest)
        one = tuple(_sums([_block(perms, dest, radices, [even] * n, 0)]))
        per_part = tuple(
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

    Child i goes onto child k-1-i, class a onto class `_partners(x, y)[a]`.
    """
    perms = []
    if xp.kind == "series":
        for args in zip(x.children, xp.children, reversed(y.children), reversed(yp.children)):
            perms.append(_reversal_perms(memo, *args))
        return list(range(len(perms) - 1, -1, -1)), perms
    order_y = zip(_class_order(y), yp.classes)
    reps_y = [(y.children[members[0]], cp.rep_plan) for (_, members), cp in order_y]
    dest = _partners(x, y)
    for cp, (_, members), b in zip(xp.classes, _class_order(x), dest):
        rho = _reversal_perms(memo, x.children[members[0]], cp.rep_plan, *reps_y[b])
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


def _assignment_perm(size: int, near_perm: tuple[int, ...], span_perm: tuple[int, ...]):
    """A class's near and spanning assignment indices, mapped into its
    partner class's, from its representative's near and spanning actions.

    Paired classes have identical shapes.  A near multiset goes to the
    sorted images of its trees; a spanning choice, ordered by (tree,
    multiset), goes to the image tree beside the image multiset.  A
    one-member class's assignments are its representative's trees.
    """
    if size == 1:
        return near_perm, span_perm

    def images(k: int) -> tuple[int, ...]:
        rank = {mu: i for i, mu in enumerate(multiset_enumerate(len(near_perm), k))}
        return tuple([rank[tuple(sorted(map(near_perm.__getitem__, mu)))] for mu in rank])

    rest = images(size - 1)
    return images(size), tuple([s * len(rest) + i for s in span_perm for i in rest])


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
    """Masks of the semioriented spanning trees in `numbering`, as in `generate._placed`:
    the oriented stream, less each tree whose key is below its partner's."""
    plan = build_plan(tree)
    if plan.kind == "leaf" or tree._code != tree._rev_code:
        return _streams(tree, False, numbering=numbering)[0]
    # The actions before the lists: built while the lists are alive, they raise the peak.
    dest, perms = _parts({}, tree, plan, tree, plan)
    # Per block, each part's (index range, action on those indices).
    if plan.kind == "series":
        blocks = [[(range(c.st), span) for c, (_, span) in zip(plan.children, perms)]]
    else:
        near = [(range(cp.nc), nr) for cp, (nr, _) in zip(plan.classes, perms)]
        blocks = []
        for a, (cp, (_, span)) in enumerate(zip(plan.classes, perms)):
            spanning = (range(cp.nc, cp.nc + cp.sc), tuple(map(cp.nc.__add__, span)))
            blocks.append(near[:a] + [spanning] + near[a + 1 :])
    keys = chain.from_iterable(product(*[r for r, _ in b]) for b in blocks)
    partners = chain.from_iterable(product(*[p for _, p in b]) for b in blocks)
    # Part a's image goes to part dest[a]; dest is an involution, so partner
    # entry b is image dest[b].  One index would give a bare int, not a tuple.
    if len(dest) > 1:
        partners = map(operator.itemgetter(*dest), partners)
    stream = _streams(tree, False, numbering=numbering)[0]
    return compress(stream, map(operator.ge, keys, partners))


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def count_semioriented(g: SemiorientedSP) -> int:
    """Length of the semioriented spanning list, by recurrence alone."""
    return build_plan(g).ss
