"""Concrete syntax, edge-list recognition, and random instances.

Expression grammar (whitespace insignificant):

    expr     := edge | series | parallel
    edge     := "e(" label "," label ")"
    series   := "S(" expr {"," expr}+ ")"
    parallel := "P(" expr {"," expr}+ ")"
    label    := [A-Za-z0-9_]+

`parse_sp` and `decompose_edge_list` each feed a `core.TreeAcceptor`,
the one tree builder, as they read, so both return a normalized,
validated tree with no raw tree built first; `parse_sp` reads rejected
text again into a `core.TreeChecker`, which builds no node, to name
every violation.  `parse_sp` tokenizes by splitting at whitespace once
the punctuation is spaced out, and locates a syntax error by one regex.
`serialize_sp`, its inverse on normalized trees, writes the events that
`core._replay` reads off a tree, the acceptor's and checker's input.
`decompose_edge_list` recognizes a two-terminal series-parallel graph
from a raw edge list by repeated series and parallel reductions, which
grow n-ary series runs and P bundles in place, so a path of m edges is
one run of m parts, read into the acceptor as one S node.  `random_sp`
draws valid instances deterministically from a seed, for fuzzing.
"""

from __future__ import annotations

import heapq
import itertools
import random
import re

from .core import (
    LABEL,
    Leaf,
    Node,
    Parallel,
    Series,
    TreeAcceptor,
    TreeChecker,
    _Record,
    _reject,
    _replay,
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


# Tokens: a label, or any other single non-space character.
_TOKEN = re.compile(LABEL.pattern + r"|\S")
# A character that fits no token of a valid expression.
_STRAY = re.compile(r"[^\sA-Za-z0-9_(),]")
_HEAD = "'e', 'S', or 'P'"
# The tokens after "e"; "" stands for a label.
_EDGE = ("(", "", ",", "", ")")


def parse_sp(text: str) -> Node:
    """Parse an SP expression into a normalized, validated tree.

    The tokens feed a `core.TreeAcceptor` as they are read: it checks
    each node's local rules and, at the end, that the distinct labels
    number 2 + Σ over S nodes of (k - 1), as in every valid tree.  Only
    when it rejects is the text read again, into a `TreeChecker` that
    lists every violation.  Labels come only from the text; matching
    labels denote the same vertex, so chaining and shared-terminal
    constraints are checked literally.  Raises SpSyntaxError (with
    1-based position) or SpSemanticError (with the violation list).  If the
    acceptor rejects a text in which the checker finds no violation, an
    invariant is broken: RuntimeError.
    """
    tree = _feed(text, TreeAcceptor()).finish()
    if tree is None:
        _reject(_feed(text, TreeChecker()).broken, SpSemanticError)
    return tree


def _feed(text: str, build):
    """Read the tokens of `text` into `build` and return it; raise
    SpSyntaxError at the first token that breaks the grammar."""
    # The list stops at the first stray character, so a label is any token
    # not in "(),", and the "" padding fails every check.
    stray = _STRAY.search(text)
    tokens = _tokens(text[: stray.start()] if stray else text) + [""] * 6
    leaf = build.leaf
    depth = i = 0
    while True:
        head = tokens[i]
        if head == "e":
            u, v = tokens[i + 2], tokens[i + 4]
            if (tokens[i + 1] != "(" or tokens[i + 3] != "," or tokens[i + 5] != ")"
                    or u in "()," or v in "(),"):
                for k, want in enumerate(_EDGE, i + 1):
                    if tokens[k] != want if want else tokens[k] in "(),":
                        raise _syntax_error(text, k, repr(want) if want else "vertex label")
            leaf(u, v)
            i += 6
        elif head == "S" or head == "P":
            if tokens[i + 1] != "(":
                raise _syntax_error(text, i + 1, "'('")
            build.open(Series if head == "S" else Parallel)
            depth += 1
            i += 2
            continue
        else:
            raise _syntax_error(text, i, _HEAD)
        # A finished node is followed by ")" or by "," and a sibling.
        while depth and tokens[i] == ")":
            build.close()
            depth -= 1
            i += 1
        if not depth:
            break
        if tokens[i] != ",":
            raise _syntax_error(text, i, "')'")
        i += 1
    if tokens[i] or stray:
        raise _syntax_error(text, i, "end of input")
    return build


def _tokens(text: str) -> list[str]:
    """`_TOKEN.findall(text)` on text with no stray character: there every
    character is a label character, whitespace or one of "(),", so spacing
    out those three and splitting at whitespace (which `str.split` and the
    regex's `\\s` agree on) gives the same tokens, by C-level passes."""
    return text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()


def _syntax_error(text: str, k: int, expected: str) -> SpSyntaxError:
    """The error at token k of `text`, located by scanning the text again."""
    match = next(itertools.islice(_TOKEN.finditer(text), k, None), None)
    if match is None:
        return SpSyntaxError(len(text) + 1, expected, "end of input")
    token = match.group()
    found = repr(token if expected == _HEAD else token[0])
    return SpSyntaxError(match.start() + 1, expected, found)


def serialize_sp(node: Node) -> str:
    """Canonical text for a valid normalized tree, no whitespace, written
    from the events `core._replay` reads off it."""
    out = _replay(node, _Writer())
    out.pop()
    return "".join(out)


class _Writer(list):
    """The text pieces of `core._replay`'s events: every finished node is
    followed by a ",", which its parent's `close` turns into ")"."""

    def leaf(self, u: str, v: str) -> None:
        self += f"e({u},{v})", ","

    def open(self, kind: type) -> None:
        self.append("S(" if kind is Series else "P(")

    def close(self) -> None:
        self[-1] = ")"
        self.append(",")


# ---------------------------------------------------------------------------
# Edge-list recognition
# ---------------------------------------------------------------------------


class NotSeriesParallel(ValueError):
    pass


class DisconnectedInput(ValueError):
    pass


def decompose_edge_list(edges, s: str, t: str) -> Node:
    """Build a decomposition tree for an edge list with terminals (s, t).

    A worklist reduction in the style of Valdes, Tarjan and Lawler
    (1982).  A fragment is a subgraph between two vertices u and v, kept
    as (u, v, kind, parts) under both endpoints in a vertex -> neighbour
    -> fragment map: an edge, a series run or a P bundle.  Non-terminal
    vertices of degree 2 come off a heap, smallest label first, and are
    contracted (series reduction, `_chain`): a run beside the contracted
    vertex takes the other fragment's parts in place, the shorter run into
    the longer.  A contraction that puts a second fragment on a vertex
    pair merges the two at once (parallel reduction), the new fragment
    appended to the bundle.  So runs hold no run and bundles no bundle,
    and each fragment is a node of the normalized tree.  The graph is
    series-parallel for (s, t) exactly when this ends with a single
    fragment, which `_orient` then reads from s into a `TreeAcceptor`, so
    the tree is numbered and checked as it is read.  The returned tree's
    underlying graph equals the input up to edge order.
    """
    adj: dict[str, dict[str, tuple]] = {}
    fragments = 0
    for u, v in edges:
        # A label already in the map was checked when it came in.
        if (u not in adj and not is_valid_label(u)) or (v not in adj and not is_valid_label(v)):
            raise ValueError(f"bad vertex label in edge ({u!r}, {v!r})")
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if v in adj.get(u, ()):
            raise ValueError(f"duplicate edge {u}-{v}")
        adj.setdefault(u, {})[v] = adj.setdefault(v, {})[u] = (u, v, Leaf, ())
        fragments += 1
    if s == t:
        raise ValueError("terminals must be distinct")
    if s not in adj or t not in adj:
        raise ValueError("terminals must appear in the edge list")
    if not _connected(adj, s):
        raise DisconnectedInput("input edge list is not connected")

    ready = [x for x, around in adj.items() if len(around) == 2 and x not in (s, t)]
    heapq.heapify(ready)
    while fragments > 1:
        if not ready:
            raise NotSeriesParallel(
                "reduction is stuck: graph is not series-parallel for these terminals"
            )
        x = heapq.heappop(ready)
        if len(adj[x]) != 2:
            continue
        (a, one), (b, two) = adj.pop(x).items()
        at_a, at_b = adj[a], adj[b]
        del at_a[x], at_b[x]
        merged = _chain(a, one, x, two, b)
        fragments -= 1
        old = at_a.get(b)
        if old is None:
            at_a[b] = at_b[a] = merged
            continue
        if old[2] is Parallel:
            old[3].append(merged)
        else:
            at_a[b] = at_b[a] = (old[0], old[1], Parallel, [old, merged])
        fragments -= 1
        for y in (a, b):
            if len(adj[y]) == 2 and y not in (s, t):
                heapq.heappush(ready, y)
    return _orient(adj[s][t], s)


def _items(fragment, end: str):
    """The parts of a series run in order from its endpoint `end`, or the
    fragment alone if it is no run.  A run [u, v, Series, (left, right)]
    holds reversed(left) + right from u to v, so it grows at either end by
    an append."""
    u, _, kind, parts = fragment
    if kind is not Series:
        return (fragment,)
    first, last = parts if end == u else parts[::-1]
    return itertools.chain(reversed(first), last)


def _chain(a: str, one, x: str, two, b: str) -> list:
    """The series run from a to b of `one` (from a to x) and `two` (from x to
    b): the longer, if it is a run, with the other's parts added at x in
    place, or a new run of the two."""
    if two[2] is Series and (one[2] is not Series or sum(map(len, one[3])) < sum(map(len, two[3]))):
        a, one, two, b = b, two, one, a
    if one[2] is not Series:
        return [a, b, Series, ([], [one, two])]
    end = 1 if one[1] == x else 0  # (left, right) grow at (u, v)
    one[3][end].extend(_items(two, x))
    one[end] = b
    return one


def _orient(fragment, start: str) -> Node:
    """The tree of `fragment` read from its endpoint `start` into a `TreeAcceptor`.

    A run's parts are chained from `start` (`_items`); a bundle's parts
    keep their order.  A part is read from its first endpoint when `start`
    is that endpoint and from its second otherwise, so a fragment whose
    parts do not meet is read as it is and rejected.  A finished reduction
    always yields a valid tree, so a rejection is a broken invariant:
    RuntimeError.
    """
    build = TreeAcceptor()
    stack = [(fragment, start, False)]
    while stack:
        fragment, start, built = stack.pop()
        u, v, kind, parts = fragment
        if kind is Leaf:
            if start == u:
                build.leaf(u, v)
            else:
                build.leaf(v, u)
        elif built:
            build.close()
        else:
            build.open(kind)
            stack.append((fragment, start, True))
            if kind is Parallel:
                reads = [(part, start, False) for part in parts]
            else:
                reads = []
                for part in _items(fragment, start):
                    reads.append((part, start, False))
                    start = part[1] if start == part[0] else part[0]
            stack.extend(reversed(reads))
    tree = build.finish()
    if tree is None:
        raise RuntimeError("the edge-list reduction built an invalid decomposition tree")
    return tree


def _connected(adj: dict[str, dict[str, tuple]], start: str) -> bool:
    stack = [start]
    seen = {start}
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


class RandomSpParams(_Record):
    __slots__ = ("seed", "max_depth", "max_children", "leaf_bias")

    def __init__(self, seed: int, max_depth: int = 3, max_children: int = 3,
                 leaf_bias: float = 0.4) -> None:
        _Record.__init__(self, seed, max_depth, max_children, leaf_bias)


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
    if not lines or lines[0].split()[0] != "terminals":
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
        if line.split()[0] == "terminals":
            return [read_edge_list(text)]
        return read_expressions(text)
    return []
