"""Semioriented enumeration: spanning trees up to terminal exchange.

When no automorphism can exchange the terminals, the semioriented
output is bit-identical to the oriented one.  Otherwise the oriented
enumeration produces the surviving trees in pairs related by the
reversal symmetry, and the filter keeps one of each pair: `_selectors`
gives one keep flag per oriented root tree, which `_masks` applies to
the oriented root stream, and `cli.verify_instance` to the oriented
spanning list it has already built, each by `itertools.compress`, so
verify builds no oriented list twice.  A root tree's key is
its tuple of indices into the root's part lists (`generate._blocks`, a
part's spanning trees or assignments numbered after its near ones).  The
reversal carries part i onto part dest[i] and its index through the
part's index action, which gives the partner's key; a tree is kept iff
its key compares >= its partner's.  Keys and partners are
`itertools.product`s over each block's index ranges and actions, so no
Python code runs per tree.  The comparison uses the full tuple, including
the middle child of an odd series chain and self-paired parallel classes,
so a tree whose outer positions are palindromic is still paired off
through its middle entry.  All lists below the top level stay oriented.

The index actions come from the plans alone (counts, codes and parts, a
P shape's classes by descending code), with no node, no leaf and no
numbering: where code(x) = rev_code(y), the reversal's action on list
indices, from x's lists onto y's, composes from the parts' actions over
the same block layout as the lists (`generate._layout`), and
`generate._partners` pairs the parts.  `_reversal_perms` builds them in
one loop over the plans in the plan pass's order, each shape after its
parts, so nothing recurses.  The actions live as long as the filter's
stream; the cached plans hold none of them.

Counting needs no enumeration: `count_semioriented` reads the
semioriented count that `generate.build_plan` computes in its single
bottom-up pass, next to the oriented and total counts (the
fixed-candidate arithmetic lives there too).
"""

from __future__ import annotations

import operator
from itertools import accumulate, chain, compress, islice, product, repeat, tee

from .core import EdgeSet, SemiorientedSP, _tree_of
from .generate import (
    _block_of,
    _count,
    _cumulative,
    _layout,
    _partners,
    _plans,
    _starts,
    _streams,
    _sums,
    _wide,
    build_plan,
    multiset_coefficient,
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
    xp, yp = build_plan(x), build_plan(y)
    if xp.code != yp.rev:
        raise ValueError("the mirror is not a reversal of the child")
    near, spanning = _reversal_perms(_plans(x).by_code.values(), _plans(y).by_code)[xp.code]
    return near if kind == "near" else spanning


def _reversal_perms(xplans, mirrors: dict) -> dict:
    """The reversal's index actions, as code: (on the near list, on the
    spanning list), of every plan x in `xplans`, each after its parts.

    Entry i of each is the position, in the list of the same kind of y =
    `mirrors[x.rev]`, of the reversal of x's i-th tree.  One loop, in the
    plan pass's order, composes each action from its parts' (`_parts`).
    """
    actions = {"E": ((0,), (0,))}
    for xp in xplans:
        if xp.kind != "leaf":
            yp = mirrors[xp.rev]
            dest, perms = _parts(actions, xp, yp)
            actions[xp.code] = tuple(_moved(perms, dest, yp, near) for near in (True, False))
    return actions


def _parts(actions: dict, xp, yp) -> tuple[list[int], list]:
    """Per part of xp (series child, parallel class): the part of yp that the
    reversal carries it onto (`_partners`), and the part's (near, spanning)
    digit actions, from its member plan's `actions` (`_assignment_perm`)."""
    perms = []
    for part in xp.parts:
        size, rep = (part.size, part.rep_plan) if xp.kind == "parallel" else (1, part)
        perms.append([_assignment_perm(size, *actions[rep.code], near) for near in (True, False)])
    return _partners(xp, yp), perms


def _moved(perms, dest, yp, near: bool) -> tuple[int, ...]:
    """The reversal's action on x's near (or spanning) list, onto y's.

    Per block of x's list (`_layout`, which x and y share), part i of x
    lands on part dest[i] of y with its kind, which picks y's block; y's
    digits run in its part order, the last fastest, from that block's start.
    """
    parts, k, starts, blocks = yp.parts, len(dest), _starts(yp.parts, near), []
    for kinds in _layout(yp, near, lambda i, kind: kind):  # each part's kind, per block
        image = [False] * k
        for i, b in enumerate(dest):
            image[b] = kinds[i]
        place = [1] * k
        for b in range(k - 1, 0, -1):
            place[b - 1] = place[b] * _count(parts[b], image[b])
        # perms[i] holds part i's (near, spanning) actions.
        moved = [[v * place[b] for v in perms[i][not kinds[i]]] for i, b in enumerate(dest)]
        blocks.append([[starts[_block_of(image, near)]]] + moved)
    return tuple(_sums(blocks, yp.nt if near else yp.st, operator.add))


def _assignment_perm(size: int, near_perm: tuple[int, ...], span_perm: tuple[int, ...],
                     near: bool) -> tuple[int, ...]:
    """A class's near (or spanning) assignment indices, mapped into its
    partner class's, from its representative's near and spanning actions.

    Paired classes have identical shapes.  A near multiset goes to the
    rank of its trees' images (`_images`); a spanning choice, ordered by
    (tree, multiset), goes to the image tree beside the image multiset.
    A one-member class's assignments are its representative's trees.
    """
    if size == 1:
        return near_perm if near else span_perm
    if near:
        return _images(near_perm, size)
    rest = _images(near_perm, size - 1)
    return tuple([s * len(rest) + i for s in span_perm for i in rest])


def _images(perm: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Per size-k multiset over range(r), r = len(perm), in
    `multiset_enumerate` order, the rank of its image under `perm`.

    Where k is large against r (`generate._wide`), each multiset is read as
    its count vector, in O(r) by C-level maps: the counts are the gaps of
    its cumulative counts (`generate._cumulative`), which come in reverse
    order, and the image's counts, by value, are those of the items that
    `perm` maps to each value.  The rank of the image counts the multisets
    before it.  Each first differs from it at the place S_w of the image's
    first member above some value w (S_w its members <= w), where it holds
    w, so the rank sums, over the w with S_w < k, the C(r - w + k - S_w - 2,
    k - S_w - 1) nondecreasing completions from w on (`multiset_rank`, by
    values, not places); S_{r-1} is k.  Elsewhere sorting and looking up
    the k images costs less (as measured), and is done instead.
    """
    r = len(perm)
    if not _wide(r, k):
        rank = {mu: i for i, mu in enumerate(multiset_enumerate(r, k))}
        return tuple([rank[tuple(sorted(map(perm.__getitem__, mu)))] for mu in rank])
    if r == 1:  # one multiset; an itemgetter of one index would give a bare int
        return (0,)
    terms = [[multiset_coefficient(r - w, k - i - 1) for i in range(k + 1)] for w in range(r - 1)]
    ends, starts = tee(_cumulative(r, k))
    ends, starts = map(operator.add, ends, repeat((k,))), map(operator.add, repeat((0,)), starts)
    counts = map(tuple, map(map, repeat(operator.sub), ends, starts))
    # Value w of the image counts the members of the item mapped to w.
    inverse = sorted(range(r), key=perm.__getitem__)
    sums = map(accumulate, map(operator.itemgetter(*inverse), counts))
    return tuple(reversed(list(map(sum, map(map, repeat(list.__getitem__), repeat(terms), sums)))))


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
    the oriented stream through the reversal filter's `_selectors`."""
    # The actions before the lists: built while the lists are alive, they
    # raise the peak.
    keep = _selectors(tree)
    stream = _streams(tree, False, numbering=numbering)[0]
    return stream if keep is None else compress(stream, keep)


def _selectors(tree):
    """Per oriented spanning tree of `tree`, in stream order, whether the
    filter keeps it: its key compares >= its partner's.  None when the root
    is not reversal-symmetric, where every tree is kept.  The actions are
    built here, the selectors themselves lazily, so they read a list or a
    stream alike.  A lone edge (code = reversal code = E) has no parts, so
    its one tree has the empty key and the empty partner, and is kept."""
    plan = build_plan(tree)
    if plan.code != plan.rev:
        return None
    # Every plan but the last, the root's, gets its action: the root's parts
    # read theirs, and nothing reads the root's own.
    plans = _plans(tree).by_code
    actions = _reversal_perms(islice(plans.values(), len(plans) - 1), plans)
    dest, parallel = _partners(plan, plan), plan.kind == "parallel"

    def digits(i: int, near: bool):
        """Part i's index range and the action on it, its spanning trees (or
        assignments) numbered after its near ones, built only for the kinds
        the blocks read: a P root of one class reads no near assignment."""
        p = plan.parts[i]
        size, rep = (p.size, p.rep_plan) if parallel else (1, p)
        perm = _assignment_perm(size, *actions[rep.code], near)
        if near:
            return range(p.nt), perm
        return range(p.nt, p.nt + p.st), tuple(map(p.nt.__add__, perm))

    blocks = _layout(plan, False, digits)
    keys = chain.from_iterable(product(*[r for r, _ in b]) for b in blocks)
    partners = chain.from_iterable(product(*[p for _, p in b]) for b in blocks)
    # Part a's image goes to part dest[a]; dest is an involution, so partner
    # entry b is image dest[b].  One index would give a bare int, not a tuple.
    if len(dest) > 1:
        partners = map(operator.itemgetter(*dest), partners)
    return map(operator.ge, keys, partners)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def count_semioriented(g: SemiorientedSP) -> int:
    """Length of the semioriented spanning list, by recurrence alone."""
    return build_plan(g).ss
