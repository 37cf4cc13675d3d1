"""Canonical codes and explicit isomorphisms for oriented SP graphs.

Two oriented series-parallel graphs are oriented-isomorphic (there is a
vertex bijection preserving adjacency and fixing source and sink) if
and only if their normalized decomposition trees agree up to reordering
P children.  The canonical code makes that decidable and totally
ordered: a leaf encodes as "E", a series node concatenates its child
codes in order, and a parallel node concatenates them sorted.  Token
order is S < P < E < "(" < ")".  Each node computes its code and its
reversal code once, from its children's codes, and caches them (see
`core`); nothing here re-walks a subtree to rebuild a code.

On top of the codes this module extracts explicit leaf bijections
(`iso_map`), partitions a P node's children into oriented isomorphism
classes (`partition_classes`), and detects the terminal-exchanging
symmetry that distinguishes the semioriented automorphism group from
the oriented one (`mirror_pairing`).  Classes come in `core._class_order`,
the order `generate.build_plan` keeps in each P shape's plan, and the
pairing reads the plans: `generate._partners` is the one place that
says which part (series child or class) holds a part's reversals, for
the pairing, the semioriented counts and the reversal filter alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Leaf, Node, Parallel, Series, _class_order, _tree_of, inner_postorder, iter_leaves
from .generate import _partners, build_plan


def canonical_code(g) -> str:
    """Code identifying an oriented SP graph up to oriented isomorphism."""
    return _coded(g)._code


def reversal_code(g) -> str:
    """Canonical code of the same graph with source and sink exchanged."""
    return _coded(g)._rev_code


def _coded(g) -> Node:
    """The tree of `g`, with both codes of every node read children first,
    so that reading the root's recurses no deeper than one level."""
    tree = _tree_of(g)
    for node in inner_postorder(tree):
        node._code, node._rev_code  # cached on the node by the first read
    return tree


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
    if ta._code != tb._code:
        return None
    mapping: dict[int, int] = {}
    _match(ta, tb, mapping)
    _verify_leaf_bijection(ta, tb, mapping)
    return mapping


def _match(a: Node, b: Node, mapping: dict[int, int]) -> None:
    if isinstance(a, Leaf):
        mapping[a.index] = b.index
        return
    if isinstance(a, Series):
        for ca, cb in zip(a.children, b.children):
            _match(ca, cb, mapping)
        return
    groups_a: dict[str, list[Node]] = {}
    groups_b: dict[str, list[Node]] = {}
    for child in a.children:
        groups_a.setdefault(child._code, []).append(child)
    for child in b.children:
        groups_b.setdefault(child._code, []).append(child)
    for code, members_a in groups_a.items():
        for ca, cb in zip(members_a, groups_b[code]):
            _match(ca, cb, mapping)


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


@dataclass
class IsoClass:
    """One oriented isomorphism class of a P node's children.

    `members` holds child positions in storage order; the first member
    is the class representative.  `to_rep[pos]` maps a member's leaf
    indices onto the representative's.
    """

    code: str
    members: tuple[int, ...]
    to_rep: dict[int, dict[int, int]]

    @property
    def representative(self) -> int:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class IsoClassPartition:
    classes: tuple[IsoClass, ...]


def partition_classes(p: Parallel) -> IsoClassPartition:
    """Group a P node's children into oriented isomorphism classes.

    Classes come in `_class_order`, and each member gets an explicit
    verified bijection onto the class representative (the identity for
    the representative itself).  `generate` needs none of these maps:
    it builds each member's lists from the member's own nodes.
    """
    if not isinstance(p, Parallel):
        raise TypeError("partition_classes expects a Parallel node")
    classes = []
    for code, members in _class_order(p):
        rep = p.children[members[0]]
        to_rep = {members[0]: {lf.index: lf.index for lf in iter_leaves(rep)}}
        for pos in members[1:]:
            mapping = iso_map(p.children[pos], rep)
            assert mapping is not None
            to_rep[pos] = mapping
        classes.append(IsoClass(code, tuple(members), to_rep))
    return IsoClassPartition(tuple(classes))


@dataclass
class MirrorPairing:
    """Witness that a terminal-exchanging symmetry of the node's shape exists.

    A series node's reversal carries child i onto child k-1-i.  For a
    parallel node, `class_pairs` lists (forward class, backward class),
    the class holding the forward class's reversals, each unordered pair
    once, self-pairs allowed.
    """

    kind: str
    class_pairs: tuple[tuple[int, int], ...] | None = None


def mirror_pairing(node: Node) -> MirrorPairing | None:
    """Detect the terminal-exchanging symmetry of a normalized node.

    Returns None exactly when no automorphism of the graph can exchange
    the terminals, in which case the semioriented automorphism group
    equals the oriented one: exactly when the code and the reversal code
    differ (series codes decode uniquely; equal parallel codes pair
    classes of equal size).  A leaf is trivially self-paired.  It reads
    the node's plans (`generate.build_plan`), so no code read recurses.
    """
    plan = build_plan(node)
    if plan.code != plan.rev:
        return None
    if plan.kind != "parallel":
        return MirrorPairing(kind=plan.kind)
    pairs = tuple((a, b) for a, b in enumerate(_partners(plan, plan)) if b >= a)
    return MirrorPairing(kind="parallel", class_pairs=pairs)
