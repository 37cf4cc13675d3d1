"""Canonical codes and explicit isomorphisms for oriented SP graphs.

Two oriented series-parallel graphs are oriented-isomorphic (there is a
vertex bijection preserving adjacency and fixing source and sink) if
and only if their normalized decomposition trees agree up to reordering
P children.  The canonical code makes that decidable and totally
ordered: a leaf encodes as "E", a series node concatenates its child
codes in order, and a parallel node concatenates them sorted.  Token
order is S < P < E < "(" < ")".  The codes are plan facts: the plan pass
(`generate.build_plan`) builds each distinct shape's code and reversal
code once, from its parts' codes, and nothing here builds a code.

On top of the plans this module extracts explicit leaf bijections
(`iso_map`), partitions a P node's children into oriented isomorphism
classes (`partition_classes`), and detects the terminal-exchanging
symmetry that distinguishes the semioriented automorphism group from
the oriented one (`mirror_pairing`).  All three read the plan pass's
result on their input (`generate._plans`).  A leaf map is an aligned walk
of two programs, the plan pass's one entry per inner node, whose refs
list a series node's children in order and a P node's by class, in the
plan's class order and storage order within each class, by an explicit
stack.  The pairing reads the plans alone: `generate._partners` is the
one place that says which part (series child or class) holds a part's
reversals, for the pairing, the semioriented counts and the reversal
filter alike.
"""

from __future__ import annotations

from .core import Leaf, Node, Parallel, _Mutable, _tree_of, iter_leaves
from .generate import _partners, _plans, _root, build_plan


def canonical_code(g) -> str:
    """Code identifying an oriented SP graph up to oriented isomorphism."""
    return build_plan(g).code


def reversal_code(g) -> str:
    """Canonical code of the same graph with source and sink exchanged."""
    return build_plan(g).rev


def iso_map(a, b) -> dict[int, int] | None:
    """Leaf bijection realizing an oriented isomorphism, or None.

    None exactly when the canonical codes differ.  Series children are
    matched positionally; parallel children are matched within
    equal-code groups in child storage order, which makes the maps
    compose coherently across chains of isomorphic trees.  The returned
    map is verified to induce a consistent vertex bijection fixing both
    terminals.
    """
    ta, tb = _tree_of(a), _tree_of(b)
    if build_plan(ta).code != build_plan(tb).code:
        return None
    return _match(ta, _plans(ta).program, _root(ta), tb, _plans(tb).program, _root(tb))


def _match(a: Node, xs: list, x: int, b: Node, ys: list, y: int) -> dict[int, int]:
    """The verified leaf map of `a`, the node `x` of the program `xs`, onto
    `b`, the node `y` of `ys`, two nodes of one code.  Ref pairs come off an
    explicit stack: the two nodes' refs, aligned, are series children in
    order and each P class's members in storage order (`generate._Plans`)."""
    mapping, stack = {}, [(x, y)]
    while stack:
        x, y = stack.pop()
        if x < 0:
            mapping[~x] = ~y
        else:
            stack.extend(zip(xs[x][1], ys[y][1]))
    _verify_leaf_bijection(a, b, mapping)
    return mapping


def _verify_leaf_bijection(a: Node, b: Node, mapping: dict[int, int]) -> None:
    """Check that a leaf map is edge preserving and terminal fixing."""
    leaves_b = {lf.index: lf for lf in iter_leaves(b)}
    if sorted(mapping.values()) != sorted(leaves_b):
        raise RuntimeError("leaf map is not a bijection onto the target leaves")
    vmap: dict[str, str] = {}
    inverse: dict[str, str] = {}
    for lf in iter_leaves(a):
        img = leaves_b[mapping[lf.index]]
        for x, y in ((lf.source, img.source), (lf.target, img.target)):
            if vmap.setdefault(x, y) != y or inverse.setdefault(y, x) != x:
                raise RuntimeError("leaf map does not induce a vertex bijection")
    if vmap.get(a.source) != b.source or vmap.get(a.target) != b.target:
        raise RuntimeError("leaf map moves a terminal")


class IsoClass(_Mutable):
    """One oriented isomorphism class of a P node's children.

    `members` holds child positions in storage order; the first member
    is the class representative.  `to_rep[pos]` maps a member's leaf
    indices onto the representative's.
    """

    __slots__ = ("code", "members", "to_rep")

    def __init__(self, code: str, members: tuple[int, ...],
                 to_rep: dict[int, dict[int, int]]) -> None:
        _Mutable.__init__(self, code, members, to_rep)

    @property
    def representative(self) -> int:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


class IsoClassPartition(_Mutable):
    __slots__ = ("classes",)

    def __init__(self, classes: tuple[IsoClass, ...]) -> None:
        _Mutable.__init__(self, classes)


def partition_classes(p: Parallel) -> IsoClassPartition:
    """Group a P node's children into oriented isomorphism classes.

    Classes come in the plan's class order (descending code), and each
    member gets an explicit verified bijection onto the class
    representative (the identity for the representative itself).
    `generate` needs none of these maps: it builds each member's lists
    from the member's own part of the program.
    """
    if not isinstance(p, Parallel):
        raise TypeError("partition_classes expects a Parallel node")
    program = _plans(p).program
    plan, refs = program[-1]
    # A leaf's ref is its index, and inner children's slots rise in storage order.
    inner = iter(sorted(ref for ref in refs if ref >= 0))
    at = {~kid.index if isinstance(kid, Leaf) else next(inner): (pos, kid)
          for pos, kid in enumerate(p.children)}
    classes, start = [], 0
    for cp in plan.parts:
        members, start = refs[start : start + cp.size], start + cp.size
        rep = members[0]
        to_rep = {at[ref][0]: _match(at[ref][1], program, ref, at[rep][1], program, rep)
                  for ref in members}
        classes.append(IsoClass(cp.rep_plan.code, tuple(to_rep), to_rep))
    return IsoClassPartition(tuple(classes))


class MirrorPairing(_Mutable):
    """Witness that a terminal-exchanging symmetry of the node's shape exists.

    A series node's reversal carries child i onto child k-1-i.  For a
    parallel node, `class_pairs` lists (forward class, backward class),
    the class holding the forward class's reversals, each unordered pair
    once, self-pairs allowed.
    """

    __slots__ = ("kind", "class_pairs")

    def __init__(self, kind: str, class_pairs: tuple[tuple[int, int], ...] | None = None) -> None:
        _Mutable.__init__(self, kind, class_pairs)


def mirror_pairing(node: Node) -> MirrorPairing | None:
    """Detect the terminal-exchanging symmetry of a normalized node.

    Returns None exactly when no automorphism of the graph can exchange
    the terminals, in which case the semioriented automorphism group
    equals the oriented one: exactly when the code and the reversal code
    differ (series codes decode uniquely; equal parallel codes pair
    classes of equal size).  A leaf is trivially self-paired.  It reads
    the node's plans (`generate.build_plan`) alone.
    """
    plan = build_plan(node)
    if plan.code != plan.rev:
        return None
    if plan.kind != "parallel":
        return MirrorPairing(kind=plan.kind)
    pairs = tuple((a, b) for a, b in enumerate(_partners(plan, plan)) if b >= a)
    return MirrorPairing(kind="parallel", class_pairs=pairs)
