"""Concrete syntax, edge-list recognition, and random instances.

Expression grammar (whitespace insignificant):

    expr     := edge | series | parallel
    edge     := "e(" label "," label ")"
    series   := "S(" expr {"," expr}+ ")"
    parallel := "P(" expr {"," expr}+ ")"
    label    := [A-Za-z0-9_]+

`parse_sp` returns a normalized, validated tree; `serialize_sp` is its
inverse on normalized trees.  `decompose_edge_list` recognizes a
two-terminal series-parallel graph from a raw edge list by repeated
series and parallel reductions.  `random_sp` draws valid instances
deterministically from a seed, for fuzzing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    _LABEL_CHARS,
    InvalidTreeError,
    Leaf,
    Node,
    Parallel,
    Series,
    is_valid_label,
    normalize,
)


class SpParseError(ValueError):
    """Common base for syntax and semantic input errors."""


class SpSyntaxError(SpParseError):
    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at position {position}: expected {expected}, found {found}"
        )


class SpSemanticError(SpParseError):
    def __init__(self, violations):
        self.violations = list(violations)
        details = "; ".join(str(v) for v in self.violations)
        super().__init__(f"semantic error: {details}")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def describe_here(self) -> str:
        ch = self.peek()
        return "end of input" if ch == "" else repr(ch)

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise SpSyntaxError(self.pos + 1, repr(char), self.describe_here())
        self.pos += 1

    def ident(self, what: str) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _LABEL_CHARS:
            self.pos += 1
        if self.pos == start:
            raise SpSyntaxError(start + 1, what, self.describe_here())
        return self.text[start:self.pos]


def _parse_node(sc: _Scanner, counter: list[int]) -> Node:
    head = sc.ident("'e', 'S', or 'P'")
    if head not in ("e", "S", "P"):
        raise SpSyntaxError(sc.pos - len(head) + 1, "'e', 'S', or 'P'", repr(head))
    sc.expect("(")
    if head == "e":
        source = sc.ident("vertex label")
        sc.expect(",")
        target = sc.ident("vertex label")
        sc.expect(")")
        leaf = Leaf(source, target, counter[0])
        counter[0] += 1
        return leaf
    children = [_parse_node(sc, counter)]
    while sc.peek() == ",":
        sc.expect(",")
        children.append(_parse_node(sc, counter))
    sc.expect(")")
    kind = Series if head == "S" else Parallel
    return kind(tuple(children))


def parse_sp(text: str) -> Node:
    """Parse an SP expression into a normalized, validated tree.

    Labels come only from the text; matching labels denote the same
    vertex, so chaining and shared-terminal constraints are checked
    literally.  Raises SpSyntaxError (with 1-based position) or
    SpSemanticError (with the violation list).
    """
    sc = _Scanner(text)
    raw = _parse_node(sc, [0])
    if sc.peek() != "":
        raise SpSyntaxError(sc.pos + 1, "end of input", sc.describe_here())
    try:
        return normalize(raw)
    except InvalidTreeError as exc:
        raise SpSemanticError(exc.violations) from None


def serialize_sp(node: Node) -> str:
    """Canonical text for a valid normalized tree, no whitespace."""
    if isinstance(node, Leaf):
        return f"e({node.source},{node.target})"
    head = "S" if isinstance(node, Series) else "P"
    return head + "(" + ",".join(serialize_sp(c) for c in node.children) + ")"


# ---------------------------------------------------------------------------
# Edge-list recognition
# ---------------------------------------------------------------------------


class NotSeriesParallel(ValueError):
    pass


class DisconnectedInput(ValueError):
    pass


def _flip(node: Node) -> Node:
    """Reverse the orientation of a fragment (indices fixed up later)."""
    if isinstance(node, Leaf):
        return Leaf(node.target, node.source, node.index)
    kids = tuple(_flip(c) for c in node.children)
    if isinstance(node, Series):
        return Series(tuple(reversed(kids)))
    return Parallel(kids)


@dataclass
class _Fragment:
    source: str
    target: str
    tree: Node

    def oriented(self, source: str, target: str) -> Node:
        if (self.source, self.target) == (source, target):
            return self.tree
        if (self.target, self.source) == (source, target):
            return _flip(self.tree)
        raise AssertionError("fragment endpoints do not match")


def decompose_edge_list(edges, s: str, t: str) -> Node:
    """Build a decomposition tree for an edge list with terminals (s, t).

    Repeatedly merges duplicate-endpoint fragments (parallel reduction)
    and contracts degree-2 non-terminal vertices (series reduction);
    the graph is series-parallel for (s, t) exactly when this ends with
    a single fragment.  The returned tree's underlying graph equals the
    input up to edge order.
    """
    edge_pairs: list[tuple[str, str]] = []
    seen: set[frozenset[str]] = set()
    vertices: set[str] = set()
    for u, v in edges:
        if not is_valid_label(u) or not is_valid_label(v):
            raise ValueError(f"bad vertex label in edge ({u!r}, {v!r})")
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        key = frozenset((u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {u}-{v}")
        seen.add(key)
        edge_pairs.append((u, v))
        vertices.update((u, v))
    if s == t:
        raise ValueError("terminals must be distinct")
    if s not in vertices or t not in vertices:
        raise ValueError("terminals must appear in the edge list")
    if not _connected(vertices, edge_pairs):
        raise DisconnectedInput("input edge list is not connected")

    fragments: dict[int, _Fragment] = {
        i: _Fragment(u, v, Leaf(u, v)) for i, (u, v) in enumerate(edge_pairs)
    }
    next_id = len(fragments)

    def incidence() -> dict[str, list[int]]:
        inc: dict[str, list[int]] = {}
        for fid, frag in fragments.items():
            inc.setdefault(frag.source, []).append(fid)
            inc.setdefault(frag.target, []).append(fid)
        return inc

    while len(fragments) > 1:
        progress = False

        by_pair: dict[frozenset[str], list[int]] = {}
        for fid, frag in sorted(fragments.items()):
            by_pair.setdefault(frozenset((frag.source, frag.target)), []).append(fid)
        for fids in by_pair.values():
            if len(fids) < 2:
                continue
            first = fragments[fids[0]]
            u, v = first.source, first.target
            children = tuple(fragments[fid].oriented(u, v) for fid in fids)
            for fid in fids:
                del fragments[fid]
            fragments[next_id] = _Fragment(u, v, Parallel(children))
            next_id += 1
            progress = True

        inc = incidence()
        for vertex in sorted(inc):
            if vertex in (s, t) or len(inc[vertex]) != 2:
                continue
            fid1, fid2 = inc[vertex]
            if fid1 == fid2:
                continue
            f1, f2 = fragments[fid1], fragments[fid2]
            a = f1.source if f1.target == vertex else f1.target
            b = f2.source if f2.target == vertex else f2.target
            left = f1.oriented(a, vertex)
            right = f2.oriented(vertex, b)
            del fragments[fid1]
            del fragments[fid2]
            fragments[next_id] = _Fragment(a, b, Series((left, right)))
            next_id += 1
            progress = True
            break

        if not progress:
            raise NotSeriesParallel(
                "reduction is stuck: graph is not series-parallel for these terminals"
            )

    (_, frag), = fragments.items()
    if frozenset((frag.source, frag.target)) != frozenset((s, t)):
        raise NotSeriesParallel(
            "reduction finished but its endpoints are not the declared terminals"
        )
    return normalize(frag.oriented(s, t))


def _connected(vertices: set[str], edge_pairs: list[tuple[str, str]]) -> bool:
    if not vertices:
        return False
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for u, v in edge_pairs:
        adj[u].add(v)
        adj[v].add(u)
    start = next(iter(vertices))
    stack = [start]
    seen = {start}
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomSpParams:
    seed: int
    max_depth: int = 3
    max_children: int = 3
    leaf_bias: float = 0.4


def random_sp(params: RandomSpParams) -> Node:
    """Draw a valid normalized tree, deterministic in the seed.

    Labels are generated as v0, v1, ... (v0 the source, v1 the sink).
    S and P levels alternate by construction, and a parallel node gets
    at most one bare edge child, so no multi-edges can appear.
    A parallel node needs depth budget >= 2 (its series children need
    room for their own children).
    """
    rng = random.Random(params.seed)
    counter = [0]

    def fresh() -> str:
        label = f"v{counter[0]}"
        counter[0] += 1
        return label

    def build(kind: str, depth: int, src: str, tgt: str) -> Node:
        k = rng.randint(2, max(2, params.max_children))
        if kind == "S":
            mids = [fresh() for _ in range(k - 1)]
            ends = [src] + mids + [tgt]
            kids = []
            for i in range(k):
                a, b = ends[i], ends[i + 1]
                if depth - 1 < 2 or rng.random() < params.leaf_bias:
                    kids.append(Leaf(a, b))
                else:
                    kids.append(build("P", depth - 1, a, b))
            return Series(tuple(kids))
        kids = []
        for i in range(k):
            if i == 0 and rng.random() < params.leaf_bias:
                kids.append(Leaf(src, tgt))
            else:
                kids.append(build("S", depth - 1, src, tgt))
        return Parallel(tuple(kids))

    src, tgt = fresh(), fresh()
    if params.max_depth <= 0:
        return normalize(Leaf(src, tgt))
    if params.max_depth >= 2 and rng.random() < 0.5:
        root = build("P", params.max_depth, src, tgt)
    else:
        root = build("S", params.max_depth, src, tgt)
    return normalize(root)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def read_expressions(text: str) -> list[Node]:
    """Parse a file body with one SP expression per line ('#' comments)."""
    trees = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw_line)
        if not line:
            continue
        try:
            trees.append(parse_sp(line))
        except SpParseError as exc:
            raise SpParseError(f"line {lineno}: {exc}") from exc
    return trees


def read_edge_list(text: str) -> Node:
    """Parse the edge-list format: 'terminals s t', then one 'u v' per line."""
    lines = [strip_comment(l) for l in text.splitlines()]
    lines = [l for l in lines if l]
    if not lines or not lines[0].startswith("terminals"):
        raise ValueError("edge-list input must start with 'terminals s t'")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("terminals line must be 'terminals s t'")
    _, s, t = head
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}, expected 'u v'")
        edges.append((parts[0], parts[1]))
    return decompose_edge_list(edges, s, t)


def read_instances(text: str) -> list[Node]:
    """Parse either input format, autodetected on the first data line."""
    for raw_line in text.splitlines():
        line = strip_comment(raw_line)
        if not line:
            continue
        if line.startswith("terminals"):
            return [read_edge_list(text)]
        return read_expressions(text)
    return []
