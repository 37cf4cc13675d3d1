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
result on their input (`generate._plans`): the plan of each node, by id,
and the classes of each P shape, by descending code, and they walk the
tree by explicit stacks.  The pairing reads the plans alone:
`generate._partners` is the one place that says which part (series
child or class) holds a part's reversals, for the pairing, the
semioriented counts and the reversal filter alike.
"""

from __future__ import annotations

from .core import Leaf, Node, Parallel, _Mutable, _tree_of, iter_leaves
from .generate import _members, _partners, _Plans, _plans, build_plan


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
    pa, pb = _plans(ta), _plans(tb)
    if pa.of(ta).code != pb.of(tb).code:
        return None
    return _match(pa, ta, pb, tb)


def _match(pa: _Plans, a: Node, pb: _Plans, b: Node) -> dict[int, int]:
    """The verified leaf map of `a` onto `b`, two nodes of one code, where
    `pa` and `pb` are the plan pass's results on trees holding them.
    Member pairs come off an explicit stack: series children in order, and
    the members of each P class (`generate._members`) in storage order."""
    mapping, stack = {}, [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, Leaf):
            mapping[x.index] = y.index
            continue
        for (xs, _, _), (ys, _, _) in zip(_members(pa, x, pa.of(x)), _members(pb, y, pb.of(y))):
            stack.extend(zip(xs, ys))
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
    from the member's own nodes.
    """
    if not isinstance(p, Parallel):
        raise TypeError("partition_classes expects a Parallel node")
    plans, classes = _plans(p), []
    position = {id(child): pos for pos, child in enumerate(p.children)}
    for members, _, rep_plan in _members(plans, p, plans.of(p)):
        rep = members[0]
        to_rep = {position[id(rep)]: {lf.index: lf.index for lf in iter_leaves(rep)}}
        for member in members[1:]:
            to_rep[position[id(member)]] = _match(plans, member, plans, rep)
        classes.append(IsoClass(rep_plan.code, tuple(to_rep), to_rep))
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
