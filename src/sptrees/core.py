"""Core types for two-terminal series-parallel graphs.

A series-parallel graph is represented by its decomposition tree: leaves
are single edges, S nodes chain subgraphs end to end, P nodes merge
subgraphs that share both terminals.  Every node has a source and a
target label; leaves carry a global index assigned in depth-first
preorder, so edge subsets can be stored as bitmasks over leaf indices.
`Leaf`, `Series` and `Parallel` are slotted classes: a constructor sets
each field once (an inner node's terminals from its children), no field
can be assigned afterwards, and no node has a `__dict__`.  Their `==`,
`hash` and `repr` are those of frozen dataclasses over the same fields.
The value types of the package (`LabeledGraph`, the rooted graphs,
`Violation` here, and the counts, plans, oracle policies and reports,
random parameters and class records of the other modules) are slotted
classes in the same way, over one base, `_Record`: each keeps the
constructor, `==`, `hash`, `repr` and immutability of the dataclass it
was.  A `LabeledGraph` keeps a `__dict__` for its lazy indexes.
`EdgeSet`, one per emitted tree, is no `_Record` but its mask, an `int`
subclass with no slot and no `__init__`, frozen by `_frozen` as the
records are; its helpers and `mask_image` read a mask's set bits by one
walk, `_bits`, which refuses a negative mask.  No
dataclass is built, and `dataclasses`, whose import and decorators took
three quarters of the package's import time, is imported only by
`_frozen`, to raise its `FrozenInstanceError`.

Nodes carry no shape facts: the canonical and reversal codes, the
classes of a P node and the counts are built once per distinct shape by
the plan pass (`generate.build_plan`), which keeps them beside the tree,
in the one slot that it fills on the root (`_plans`).

Every tree is built from leaf, open and close events, in one pass with
no raw tree built first, by one class, `TreeAcceptor`.  The readers,
`expr.parse_sp` as it reads the text and `expr.decompose_edge_list` as
it reads its reduced graph (one open/close pair per node, its fragments
being n-ary already), feed it, and `normalize` replays a tree built in
code into it.  It checks each node's local rules and then one count: a
valid tree has 2 + Σ over S nodes of (k - 1) distinct labels, the
terminals and each k-child S node's joints.  It builds no vertex set and
no message.  Only when it rejects are the same events fed again, into a
`TreeChecker`, which builds no node: it keeps terminals and a vertex set
per finished subtree and lists every violation with its position.
`validate` drives the checker alone.  `_replay` is the one walk from a
tree to those events, which feed the acceptor, the checker and the
writer (`expr.serialize_sp`).  The tree and graph types are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter
from typing import Iterator, NoReturn, Union

# A vertex label, the grammar's `label` token.
LABEL = re.compile(r"[A-Za-z0-9_]+")


def is_valid_label(text: str) -> bool:
    """True if `text` is a nonempty token over [A-Za-z0-9_]."""
    return LABEL.fullmatch(text) is not None


def _frozen(self, name: str, *value) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class _Record:
    """A value over the fields its class lists in `__slots__`, kept in
    order as `__match_args__` (a subclass that lists none keeps its base's).

    It is what a frozen dataclass over the same fields was: no field can be
    assigned or deleted, it equals a value of its own class with equal
    fields, and it hashes and prints by its fields, read as one tuple,
    `_values`, by a getter built once per class.  It pickles and copies
    through its constructor.  `_Mutable` is the dataclass that is not
    frozen.  The base `__init__` sets the fields by position; a subclass
    gives the signature.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen
    __match_args__ = _values = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(name for name in cls.__dict__.get("__slots__", ()) if name != "__dict__")
        if fields:
            cls.__match_args__ = fields
            get = attrgetter(*fields)
            cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = [f"{name}={getattr(self, name)!r}" for name in self.__match_args__]
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values


class _Mutable(_Record):
    """A `_Record` whose fields can be assigned and deleted, and which so
    has no hash."""

    __slots__ = ()
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None


class _Hash(int):
    """A hash value that hashes to itself, where an int would be reduced."""

    __slots__ = ()
    __hash__ = int.__int__


class _Node:
    """What every tree node has: terminals set when it is built, and a slot
    that only the plan pass (`generate._plans`) fills, on a root.

    Nodes are slotted, and no field can be assigned after construction.
    They compare, hash and print by their fields, as frozen dataclasses
    do.  `==` reads node pairs off an explicit stack, and an inner node's
    `hash`, `repr` and pickling fold its subtree children first (`_fold`),
    so all of them take any depth.  A node is its own copy, shallow or
    deep, as any immutable value is.
    """

    __slots__ = ("source", "target", "_plans", "__weakref__")
    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.__class__ is not b.__class__ or len(a.children) != len(b.children):
                return False
            if a.__class__ is Leaf and a._key() != b._key():
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__


class Leaf(_Node):
    """A single edge, oriented source -> target by the ambient terminals."""

    __slots__ = ("index",)
    children: tuple = ()

    def __init__(self, source: str, target: str, index: int = 0) -> None:
        _set_source(self, source)
        _set_target(self, target)
        _set_index(self, index)

    def _key(self) -> tuple:
        return self.source, self.target, self.index

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(source={self.source!r}, "
                f"target={self.target!r}, index={self.index!r})")

    def __reduce__(self):
        return type(self), self._key()


class _Inner(_Node):
    """An S or P node; its terminals are read off its children when it is
    built, and are None if it has none."""

    __slots__ = ("children",)

    def __init__(self, children: tuple[Node, ...]) -> None:
        _set_children(self, children)
        _set_source(self, children[0].source if children else None)
        _set_target(self, children[self._last].target if children else None)

    def __hash__(self) -> int:
        """The frozen dataclass's hash: that of the tuple of the children's
        hashes, each as a `_Hash`."""
        return _fold(self, hash, lambda node, kids: hash((tuple(map(_Hash, kids)),)))

    def __repr__(self) -> str:
        return _fold(self, repr, lambda node, kids: f"{type(node).__name__}(children=("
                     f"{', '.join(kids)}{',' * (len(kids) == 1)}))")

    def __reduce__(self):
        """Pickle through the constructors, since no field can be set after
        them: as rows (kind, children), children first, each child a leaf
        or the index of an earlier row."""
        rows: list[tuple] = []

        def row(node: Node, kids: list) -> int:
            rows.append((type(node), tuple(kids)))
            return len(rows) - 1
        _fold(self, lambda leaf: leaf, row)
        return _unpickle, (rows,)


class Series(_Inner):
    """Chain of subgraphs; child i's target is child i+1's source."""

    __slots__ = ()
    _last = -1


class Parallel(_Inner):
    """Bundle of subgraphs sharing both terminals."""

    __slots__ = ()
    _last = 0


_set_source, _set_target = _Node.source.__set__, _Node.target.__set__
_set_index, _set_children = Leaf.index.__set__, _Inner.children.__set__
Node = Union[Leaf, Series, Parallel]


def edge(source: str, target: str, index: int = 0) -> Leaf:
    return Leaf(source, target, index)


def series(*children: Node) -> Series:
    return Series(tuple(children))


def parallel(*children: Node) -> Parallel:
    return Parallel(tuple(children))


def iter_leaves(node: Node) -> Iterator[Leaf]:
    """Yield the leaves of `node` in depth-first preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            stack.extend(reversed(node.children))


def _unpickle(rows: list[tuple]) -> Node:
    """The tree that `_Inner.__reduce__` wrote as rows, built children first."""
    built: list[Node] = []
    for kind, kids in rows:
        built.append(kind(tuple(built[k] if isinstance(k, int) else k for k in kids)))
    return built[-1]


def inner_postorder(node: Node) -> list[Node]:
    """The S and P nodes under `node`, each after all of its children, and
    siblings' subtrees in storage order, found by an explicit stack: the
    order in which the plan pass (`generate._build`) reads a node after its
    parts and lays out its program, with no recursion at any depth."""
    inner, stack = [], [node]
    while stack:
        node = stack.pop()
        if not isinstance(node, Leaf):
            inner.append(node)
            stack.extend(node.children)
    inner.reverse()
    return inner


def _fold(root: Node, leaf, inner):
    """An S or P node folded children first, with no recursion at any
    depth: a leaf's value is `leaf(lf)`, an inner node's `inner(node,
    values)`, `values` being its children's in order."""
    folds: dict[int, object] = {}
    for node in inner_postorder(root):
        folds[id(node)] = inner(node, [leaf(kid) if isinstance(kid, Leaf) else folds[id(kid)]
                                       for kid in node.children])
    return folds[id(root)]


class _RootedSP(_Record):
    """A series-parallel graph with two terminals, given by its tree.

    The one graph type: `OrientedSP` reads its terminals as an ordered
    (source, sink) pair and `SemiorientedSP` as an unordered set, each by
    its `_terminal_key`.  Two graphs are equal when they are of the same
    kind, their underlying labeled graphs coincide and their terminal keys
    are equal; a pair never equals a set, so the two kinds never compare
    equal.
    """

    __slots__ = ("tree",)

    def __init__(self, tree: Node) -> None:
        _Record.__init__(self, tree)

    def _key(self) -> tuple:
        g = underlying_graph(self.tree)
        return (g.vertices, frozenset(g.edges), self._terminal_key())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _RootedSP):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class OrientedSP(_RootedSP):
    """A series-parallel graph with an ordered (source, sink) terminal pair.

    Swapping the terminals yields a different oriented graph in general.
    """

    __slots__ = ()

    @property
    def source(self) -> str:
        return self.tree.source

    @property
    def target(self) -> str:
        return self.tree.target

    def _terminal_key(self) -> tuple[str, str]:
        return (self.tree.source, self.tree.target)


class SemiorientedSP(_RootedSP):
    """A series-parallel graph with an unordered terminal set {s, t}."""

    __slots__ = ()

    @property
    def terminals(self) -> frozenset[str]:
        return frozenset((self.tree.source, self.tree.target))

    _terminal_key = terminals.fget


def _tree_of(g) -> Node:
    """The decomposition tree of an OrientedSP or SemiorientedSP, or `g` itself."""
    return g.tree if isinstance(g, _RootedSP) else g


class LabeledGraph(_Record):
    """Simple labeled graph; edge i is the leaf with preorder index i.  Its
    indexes are built on first use and kept in its `__dict__`."""

    __slots__ = ("vertices", "edges", "__dict__")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[tuple[str, str], ...]) -> None:
        _Record.__init__(self, vertices, edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[str, str], int]:
        return {pair: i for i, pair in enumerate(self.edges)}

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def index_of(self, u: str, v: str) -> int:
        return self.edge_index[(u, v) if u <= v else (v, u)]


class EdgeSet(int):
    """Subset of global leaf indices stored as a bitmask: the mask itself,
    an `int` that prints as `EdgeSet(mask=...)`.

    It equals, hashes, orders and pickles as its int, and int operations
    on it (`a | b`, `es >> i & 1`, `es.bit_count()`) give plain ints.  It
    has no `__init__` of its own, so `map(EdgeSet, masks)` runs in C, and,
    as a value type, no attribute can be assigned or deleted.
    """

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen
    __match_args__ = ("mask",)
    mask = property(int.__int__, doc="The mask as a plain int.")

    @classmethod
    def of(cls, indices) -> EdgeSet:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return cls(mask)

    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self))

    def mapped(self, leaf_map: dict[int, int]) -> EdgeSet:
        """Image under a leaf-index bijection."""
        return EdgeSet(mask_image(self, leaf_map))

    def __repr__(self) -> str:
        return f"EdgeSet(mask={int(self)})"


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first.  Raises ValueError on a
    negative mask, whose bits never end."""
    if mask < 0:
        # No number in the message: a large one would exceed the interpreter's
        # limit on int-to-str conversion and raise ValueError instead.
        raise ValueError("negative edge mask")
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def mask_image(mask: int, leaf_map: dict[int, int]) -> int:
    """Image of a leaf bitmask under a leaf-index map, bit by bit."""
    out = 0
    for i in _bits(mask):
        out |= 1 << leaf_map[i]
    return out


class Violation(_Record):
    """One broken invariant, with a path to the offending node."""

    __slots__ = ("path", "message")

    def __init__(self, path: str, message: str) -> None:
        _Record.__init__(self, path, message)

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class InvalidTreeError(ValueError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def validate(node: Node) -> list[Violation]:
    """Check every decomposition-tree invariant.

    Returns one entry per violation (empty list means valid).  The tree
    is replayed into a `TreeChecker`, which names the violations of text
    `expr.parse_sp` rejects.  It checks label syntax, self-loops and child
    arity and, on each node's flattened child list, series chaining,
    shared parallel terminals, simplicity (at most one bare edge per
    parallel node) and disjointness of interior vertices across sibling
    branches.  A tree built in code can also break alternation of S and P
    levels and preorder leaf indices, which are reported here too.
    """
    check = _replay(node, TreeChecker())
    out = _violations(check.broken + check.nested)
    if any(lf.index != i for i, lf in enumerate(iter_leaves(node))):
        out.append(Violation("root", "leaf indices are not preorder 0..m-1"))
    return out


def normalize(node: Node) -> Node:
    """Flatten same-kind nestings and reassign preorder leaf indices.

    The tree is replayed into a `TreeAcceptor`, which builds the result.
    It represents the same graph, alternates S and P levels, and is a
    fixed point of `normalize`.  Raises InvalidTreeError, with the
    violations a `TreeChecker` names, when the input breaks any invariant
    other than alternation or indexing.  If the acceptor rejects a tree
    in which the checker finds no violation, an invariant is broken:
    RuntimeError.
    """
    accept = _replay(node, TreeAcceptor())
    tree = accept.finish()
    if tree is None or not all(map(is_valid_label, accept.labels)):
        _reject(_replay(node, TreeChecker()).broken, InvalidTreeError)
    return tree


def _reject(broken: list, error: type) -> NoReturn:
    """Raise `error` with the violations a `TreeChecker` found in input the
    acceptor rejected.  If it found none, the two disagree, and an
    invariant is broken: RuntimeError."""
    if broken:
        raise error(_violations(broken))
    raise RuntimeError("the acceptor rejected input that has no violation")


def _violations(found: list) -> list[Violation]:
    return [Violation(_path(at), message) for at, message in found]


def _path(at) -> str:
    """'root[i][j]...' for a position stored as (parent position, child index)."""
    steps = []
    while at is not None:
        at, i = at
        steps.append(f"[{i}]")
    return "root" + "".join(reversed(steps))


def _replay(root: Node, sink):
    """Feed a tree built in code to `sink` as leaf, open and close events,
    by an explicit stack; return `sink`."""
    stack: list = [root]
    while stack:
        node = stack.pop()
        if node is None:
            sink.close()
        elif isinstance(node, Leaf):
            sink.leaf(node.source, node.target)
        else:
            sink.open(type(node))
            stack.append(None)
            stack.extend(reversed(node.children))
    return sink


class TreeChecker:
    """One post-order pass from reader events to the list of violations;
    it builds no node.

    A source calls `leaf(u, v)` per edge and brackets each S or P node's
    children with `open(kind)` and `close()`, in input order.  An `open` of
    the enclosing node's kind joins that node's child list, so a same-kind
    run is checked once, at its top, and is listed in `nested`.  Every
    leaf's labels and self-loop and every raw node's arity are checked
    too.  Violations are (position, message) pairs in input order in
    `broken`; a position is (parent position, child index) in the raw
    input.
    """

    def __init__(self) -> None:
        self.broken: list = []
        self.nested: list = []
        # (source, target, bare edge, vertex set) per finished subtree, run
        # members side by side.
        self.done: list[tuple] = []
        # Per open raw node: [kind, children begun, start in `done` (-1
        # inside a run), len(broken) at its open, position].
        self.frames: list[list] = []

    def last(self):
        """Position of the node begun last under the innermost open node."""
        return (self.frames[-1][4], self.frames[-1][1] - 1) if self.frames else None

    def leaf(self, u: str, v: str) -> None:
        if self.frames:
            self.frames[-1][1] += 1
        if not (is_valid_label(u) and is_valid_label(v)):
            self.broken += [(self.last(), f"bad vertex label {label!r}")
                            for label in (u, v) if not is_valid_label(label)]
        if u == v:
            self.broken.append((self.last(), "self-loop at leaf"))
        self.done.append((u, v, True, {u, v}))

    def open(self, kind: type) -> None:
        frames = self.frames
        start = len(self.done)
        if frames:
            frames[-1][1] += 1
            if frames[-1][0] is kind:
                start = -1
                self.nested.append((self.last(), "{0} under {0}".format(kind.__name__.lower())))
        frames.append([kind, 0, start, len(self.broken), self.last()])

    def close(self) -> None:
        kind, count, start, mark, at = self.frames.pop()
        if count < 2:
            message = f"{kind.__name__.lower()} node needs at least 2 children"
            self.broken.insert(mark, (at, message))
        if start >= 0:
            kids = self.done[start:]
            del self.done[start:]
            ends = (kids[0][0], kids[kind._last][1]) if kids else (None, None)
            vertices = _check_children(kind, kids, at, self.broken) if len(kids) > 1 else set()
            self.done.append((*ends, False, vertices))


class TreeAcceptor:
    """The one tree builder: the `TreeChecker` events in, a normalized tree
    out.  `finish` returns the tree from valid input and None from any
    other, with no diagnosis.

    Same-kind runs are joined into one node, leaves numbered in preorder,
    and each node's terminals set by its constructor (None on a node with
    no children).  Per node only the local rules are checked: raw arity at
    least 2, no self-loop, series chaining, distinct series terminals, one
    (source, target) pair for all parallel children and at most one bare
    edge per P.  Sharing across branches is left to one count at `finish`.
    A valid tree has 2 + Σ over S nodes of (k - 1) vertices: the two
    terminals and the k - 1 joints of each S node of k children.  Once the
    local rules hold, each of those vertices has one label, and two of them
    share a label exactly where `TreeChecker` finds siblings sharing a
    vertex beyond the rules; a shortfall at a node stays in every node
    above it.  So the input is valid exactly when the distinct labels
    number 2 + Σ (k - 1).  No vertex set, position or message is built per
    node.  Labels are not checked: the text reader admits only valid ones,
    and `normalize` checks `labels` for a tree built in code.
    """

    def __init__(self) -> None:
        self.leaves = 0
        self.ok = True
        self.joints = 0
        self.labels: set[str] = set()
        self.done: list[Node] = []
        # Per open raw node: [kind, its first entry in `done`, whether it
        # tops its run, entries past one that its run members added].
        self.frames: list[list] = []

    def leaf(self, u: str, v: str) -> None:
        if u == v:
            self.ok = False
        self.labels.update((u, v))
        self.done.append(Leaf(u, v, self.leaves))
        self.leaves += 1

    def open(self, kind: type) -> None:
        frames = self.frames
        top = not frames or frames[-1][0] is not kind
        frames.append([kind, len(self.done), top, 0])

    def close(self) -> None:
        kind, start, top, extra = self.frames.pop()
        done = self.done
        added = len(done) - start
        if added - extra < 2:
            self.ok = False
        if not top:  # to the run's top, a run member is one child
            self.frames[-1][3] += added - 1
            return
        kids = tuple(done[start:])
        del done[start:]
        node = kind(kids)
        source, target = node.source, node.target
        # Plain loops: most nodes have two or three children, where they
        # cost a third of building and comparing lists.
        if kind is Series:
            self.joints += len(kids) - 1
            if source == target:
                self.ok = False
            joint = source
            for kid in kids:
                if kid.source != joint:
                    self.ok = False
                joint = kid.target
        else:
            bare = 0
            for kid in kids:
                if kid.source != source or kid.target != target:
                    self.ok = False
                bare += kid.__class__ is Leaf
            if bare > 1:
                self.ok = False
        done.append(node)

    def finish(self) -> Node | None:
        """The built tree, or None if any invariant is broken."""
        if self.ok and len(self.labels) == 2 + self.joints:
            return self.done[0]
        return None


def _check_children(kind: type, kids: list[tuple], at, broken: list) -> set[str]:
    """Check a flattened node's rules, given its children's (source,
    target, bare edge, vertex set) entries; return its own vertex set.

    The other sets are checked against one vertex -> child owner map plus
    the largest set, which becomes the node's own (small-to-large), so a
    whole walk costs O(m log m).
    """
    sets = [kid[3] for kid in kids]
    lens = list(map(len, sets))
    big = lens.index(max(lens))
    vertices = sets[big]
    if kind is Series:
        for i in range(len(kids) - 1):
            if kids[i][1] != kids[i + 1][0]:
                broken.append((at, f"series chain mismatch {kids[i][1]} != "
                               f"{kids[i + 1][0]} between children {i} and {i + 1}"))
        if kids[0][0] == kids[-1][1]:
            broken.append((at, "series terminals coincide"))
        share = "children {} and {} share vertices {} beyond the chain terminal"

        def allowed(v: str, i: int, j: int) -> bool:
            return abs(i - j) == 1 and v == kids[min(i, j)][1]
    else:
        s, t = kids[0][:2]
        for i, kid in enumerate(kids):
            if kid[0] != s or kid[1] != t:
                broken.append((at, f"parallel child {i} has terminals "
                               f"({kid[0]},{kid[1]}), expected ({s},{t})"))
        if sum(kid[2] for kid in kids) > 1:
            broken.append((at, "parallel multi-edge"))
        share = "children {} and {} share interior vertices {}"

        def allowed(v: str, i: int, j: int) -> bool:
            return v == s or v == t

    owner: dict[str, int] = {}
    clashes: dict[tuple[int, int], set[str]] = {}
    for j, mine in enumerate(sets):
        if j == big:
            continue
        for v in mine:
            if v in vertices and not allowed(v, big, j):
                clashes.setdefault((min(big, j), max(big, j)), set()).add(v)
            i = owner.setdefault(v, j)
            if i != j and not allowed(v, i, j):
                clashes.setdefault((i, j), set()).add(v)
    for i, j in sorted(clashes):
        broken.append((at, share.format(i, j, sorted(clashes[i, j]))))
    vertices.update(owner)
    return vertices


def underlying_graph(node: Node) -> LabeledGraph:
    """Labeled graph of a valid normalized tree; edge i is leaf i."""
    edges = []
    vertices: set[str] = set()
    for lf in iter_leaves(node):
        u, v = lf.source, lf.target
        vertices.add(u)
        vertices.add(v)
        edges.append((u, v) if u <= v else (v, u))
    return LabeledGraph(tuple(sorted(vertices)), tuple(edges))
