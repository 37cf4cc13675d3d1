"""Brute-force ground truth for spanning trees, automorphisms, and orbits.

Everything here works on labeled graphs only, never on decomposition
trees, so agreement checks exercise the whole pipeline.  Each step does
its inner work in C-level operations on ints and strings:

- one backtracking walk yields the spanning trees and the near sets,
  with component labels held one character per vertex in a `str` and
  merged by `str.replace`; the near trees are walked on G with s and t
  sharing one label, so only the sets separating them are met.  The walk
  never pushes a branch that strands a component, one that no later edge
  touches: a component is labelled by its vertex whose last edge comes
  latest, so that test is one character compare against a cut built once
  per walk.  That is sound only because the walk lists spanning trees
  alone, of G or of G with s and t merged, which join every component;
- the automorphism search extends vertices in breadth-first order from
  s, holds adjacency as vertex bitmasks and accepts a candidate image
  with one AND and compare;
- orbits are keyed by each set's least image under the group, and
  Burnside counts the sets each element fixes.  One image fold
  (`_least_images`) maps lists of sets under one group element at a
  time: each element but the identity builds the column tables of its
  edge map once, and each list, read as columns of `WIDTH` bits built
  once, is mapped through them and folded into its least images, the
  first list's fixed points counted too.  `orbit_partition`,
  `burnside_count` and `verify` each fold through it; `verify` splits the
  group itself, so nothing here asks which vertex an element fixes.

The default vertex limit keeps worst-case backtracking around a second;
raise it explicitly for stress runs.
"""

from __future__ import annotations

from operator import eq, or_
from typing import Union

from .core import EdgeSet, LabeledGraph, _Record, mask_image

DEFAULT_LIMIT = 12


class LimitExceeded(ValueError):
    pass


class NonIntegralResult(ValueError):
    pass


class FixBoth(_Record):
    __slots__ = ("s", "t")

    def __init__(self, s: str, t: str) -> None:
        _Record.__init__(self, s, t)


class FixSet(_Record):
    __slots__ = ("s", "t")

    def __init__(self, s: str, t: str) -> None:
        _Record.__init__(self, s, t)


class FixNone(_Record):
    __slots__ = ()


FixPolicy = Union[FixBoth, FixSet, FixNone]

VertexPermutation = dict  # vertex label -> vertex label


class OrbitReport(_Record):
    """Orbit partition of a collection of edge sets under a group."""

    __slots__ = ("orbits", "group_order")

    def __init__(self, orbits: tuple[tuple[EdgeSet, tuple[EdgeSet, ...]], ...],
                 group_order: int) -> None:
        _Record.__init__(self, orbits, group_order)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    @property
    def representatives(self) -> tuple[EdgeSet, ...]:
        return tuple(rep for rep, _ in self.orbits)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(members) for _, members in self.orbits))


def _check_limit(g: LabeledGraph, limit: int) -> None:
    if g.n > limit:
        raise LimitExceeded(f"{g.n} vertices exceeds the limit {limit}")


def _forests(g: LabeledGraph, merged: tuple[str, ...] = ()):
    """The mask of each spanning tree of G, or of G with the vertices in
    `merged` identified, in combination order.

    Backtracking over the edges on an explicit stack: edge i is tried in
    before out, and a branch is pushed only while its edges close no
    cycle and it strands no component, so the masks come in
    `itertools.combinations` order of their edge indexes.  comp is a
    `str` with one character per vertex naming its component; an edge
    that joins two components relabels one with `str.replace`
    (quick-find in one C-level pass).  A `str` holds a label for every
    vertex at any n.

    A component is stranded when no edge after the current one touches
    it, so nothing can join it to the rest.  A vertex whose last edge is
    edge pos is labelled n + 2·pos, or n + 2·pos + 1 as that edge's
    second endpoint (a vertex with no edge keeps its index), and a
    component by its highest label, so a merge keeps the larger.  Then a
    component has an edge after pos exactly when its label is at least
    `cut[pos]`: one character compare.  Skipping edge pos needs that of
    both its endpoints' components, taking it that of the joined one,
    unless the tree is then complete.

    The rule is sound only because the walk lists sets of k edges with k
    the rank, n − 1 on G: an acyclic set of k edges is then one component,
    so a branch with a stranded component never completes.  Below the rank a
    forest may leave a component apart, and the rule would drop it, so
    the walk takes no k.

    The vertices in `merged` start in one component, so the walk runs on
    G with them identified, where the rank is n − |merged|: a set is a
    spanning tree there exactly when it is acyclic in G, joins no two of
    them and has that many edges, and an edge between two of them is a
    self-loop that is never taken.
    """
    vidx = g.vertex_index
    endpoints = [(vidx[u], vidx[v]) for u, v in g.edges]
    n, m = g.n, len(endpoints)
    k = n - max(len(merged), 1)
    label = list(range(n))
    for pos, (u, v) in enumerate(endpoints):
        label[u], label[v] = n + 2 * pos, n + 2 * pos + 1
    cut = "".join(map(chr, range(n + 2, n + 2 * m + 2, 2)))
    comp = "".join(map(chr, label))
    if merged:
        top = max(comp[vidx[v]] for v in merged)
        for v in merged:
            comp = comp.replace(comp[vidx[v]], top)
    if k == 0:
        yield 0
        return
    stack = [(0, 0, 0, comp)] if m >= k else []
    while stack:
        pos, mask, size, comp = stack.pop()
        u, v = endpoints[pos]
        lo, hi, later = comp[u], comp[v], cut[pos]
        if lo > hi:
            lo, hi = hi, lo
        if lo >= later:
            stack.append((pos + 1, mask, size, comp))
        if lo != hi:
            if size + 1 == k:
                yield mask | 1 << pos
            elif hi >= later:
                stack.append((pos + 1, mask | 1 << pos, size + 1, comp.replace(lo, hi)))


def all_spanning_trees(g: LabeledGraph, limit: int = DEFAULT_LIMIT) -> list[EdgeSet]:
    """Every spanning tree exactly once, in combination order."""
    _check_limit(g, limit)
    return list(map(EdgeSet, _forests(g)))


def all_near_trees(
    g: LabeledGraph, s: str, t: str, limit: int = DEFAULT_LIMIT
) -> list[EdgeSet]:
    """Two-component spanning forests separating s from t.

    These are the near trees the series-parallel composition consumes:
    every (n-2)-edge acyclic set has exactly two components, and it can
    sit under a sibling branch that connects the terminals only if s
    and t are in different components.  They are exactly the spanning
    trees of G with s and t merged, so one walk with s and t starting in
    one component lists them, in combination order.
    """
    _check_limit(g, limit)
    return list(map(EdgeSet, _forests(g, (s, t))))


def automorphisms(
    g: LabeledGraph, policy: FixPolicy = FixNone(), limit: int = DEFAULT_LIMIT
) -> list[VertexPermutation]:
    """The full automorphism group satisfying the fixing policy.

    Backtracking extension over the vertices in breadth-first order from
    s (from the first vertex under FixNone), so every vertex but a root
    comes after an assigned neighbour and its candidates are pruned by
    adjacency.  A vertex may map to any unused vertex of equal degree in
    the same policy class (FixBoth pins s and t, FixSet keeps {s, t}).
    Adjacency is held as vertex bitmasks, so candidate j is checked
    against every vertex already assigned with one AND and compare: the
    assigned images adjacent to j must be exactly the images of the
    vertex's assigned neighbours.  The identity is always included, the
    permutations come in lexicographic order of their images in
    `g.vertices` order, and the result is closed under composition (a
    group).
    """
    _check_limit(g, limit)
    verts = g.vertices
    n = len(verts)
    vidx = g.vertex_index
    nbrs = [0] * n
    for u, v in g.edges:
        nbrs[vidx[u]] |= 1 << vidx[v]
        nbrs[vidx[v]] |= 1 << vidx[u]
    if isinstance(policy, FixBoth):
        pinned = {policy.s: 1, policy.t: 2}
    elif isinstance(policy, FixSet):
        pinned = {policy.s: 1, policy.t: 1}
    else:
        pinned = {}
    kind = [(nb.bit_count(), pinned.get(v, 0)) for nb, v in zip(nbrs, verts)]
    # Breadth-first from s; further roots matter only if g is disconnected.
    roots = [vidx[policy.s]] if pinned else []
    order: list[int] = []
    seen = 0
    for root in roots + list(range(n)):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        head = len(order)
        order.append(root)
        while head < len(order):
            fresh = nbrs[order[head]] & ~seen
            seen |= fresh
            order += [w for w in range(n) if fresh >> w & 1]
            head += 1
    candidates = [[j for j in range(n) if kind[j] == kind[v]] for v in order]
    earlier = []
    assigned = 0
    for v in order:
        before = nbrs[v] & assigned
        earlier.append([w for w in range(n) if before >> w & 1])
        assigned |= 1 << v
    image = [0] * n
    found: list[tuple[int, ...]] = []

    def extend(p: int, used: int) -> None:
        if p == n:
            found.append(tuple(image))
            return
        want = sum([1 << image[w] for w in earlier[p]])
        for j in candidates[p]:
            if not used >> j & 1 and nbrs[j] & used == want:
                image[order[p]] = j
                extend(p + 1, used | 1 << j)

    extend(0, 0)
    found.sort()
    return [dict(zip(verts, [verts[j] for j in images])) for images in found]


def _edge_map(g: LabeledGraph, sigma: VertexPermutation) -> list[int]:
    """The edge-index map a vertex permutation induces: edge i maps to entry i."""
    return [g.index_of(sigma[u], sigma[v]) for u, v in g.edges]


def apply_permutation(g: LabeledGraph, sigma: VertexPermutation, es: EdgeSet) -> EdgeSet:
    return EdgeSet(mask_image(es, _edge_map(g, sigma)))


# Bits of a mask per column of the image pass: each group element builds one
# table of 2**WIDTH entries per column, and maps a mask by one lookup per
# column, so a wider column costs more per element and less per mask.  The
# image pass of `verify` over the 66 verify-oracle inputs of seeds 1-3 (n of
# 8 to 11, |Aut_semi| up to 8) took 7.4 ms at 6 bits, 8.6 ms at 5 and 7.7 ms
# at 7, and 8.7 ms at both 4 and 8 (medians of 12 alternating runs on one
# core of a 2-vCPU x86-64 VM, Python 3.11.7).
WIDTH = 6


def _columns(masks: list[int], m: int) -> list[bytes]:
    """The masks of an m-edge graph as the columns `_images` reads:
    column j holds bits WIDTH·j … WIDTH·j + WIDTH − 1 of every mask, one
    byte per mask."""
    low = (1 << WIDTH) - 1
    return [bytes([mask >> lo & low for mask in masks]) for lo in range(0, m, WIDTH)]


def _tables(edge_map: list[int]) -> list[list[int]]:
    """The column tables of an edge permutation: entry b of table j is the
    OR of the images of the edges WIDTH·j + i over the set bits i of b,
    built by doubling."""
    tables = []
    for lo in range(0, len(edge_map), WIDTH):
        table = [0]
        for i in edge_map[lo : lo + WIDTH]:
            bit = 1 << i
            table += [entry | bit for entry in table]
        tables.append(table)
    return tables


def _images(tables: list[list[int]], columns: list[bytes]):
    """Image of each mask, given as `_columns`, under the edge permutation
    whose `_tables` are `tables`, streamed: the OR of one table entry per
    column, taken column by column in C.  The entries of distinct columns
    have disjoint bits, as the map is a bijection."""
    images = map(tables[0].__getitem__, columns[0])
    for table, column in zip(tables[1:], columns[1:]):
        images = map(or_, images, map(table.__getitem__, column))
    return images


def _lesser(least: list[int], images) -> list[int]:
    """The pointwise least of a list of masks and their images."""
    return [image if image < key else key for key, image in zip(least, images)]


def _least_images(
    g: LabeledGraph, autos: list[VertexPermutation], masks: list[int], *more: list[int]
) -> tuple:
    """The one image fold over `autos`: each of `masks`' least image, the
    number of (mask, element) pairs where the element fixes the mask, and
    then each list of `more` as its masks' least images.

    Each element whose edge map is not the identity builds its `_tables`
    once, maps `masks` through them and streams each list of `more` through
    them too.  The identity, wherever it stands in `autos`, fixes every mask
    and lowers no least image, so it maps nothing; the lists are read as
    `_columns` built once, when the first other element arrives.  Every
    least image starts at the mask itself, and memory stays at the columns
    and least images plus one element's tables and images of `masks`."""
    identity = list(range(g.m))
    least, fixed, rest, columns = masks, 0, list(more), None
    for sigma in autos:
        edge_map = _edge_map(g, sigma)
        if edge_map == identity:
            fixed += len(masks)
            continue
        if columns is None:
            columns = [_columns(x, g.m) for x in (masks, *more)]
        tables = _tables(edge_map)
        images = list(_images(tables, columns[0]))
        fixed += sum(map(eq, images, masks))
        least = _lesser(least, images)
        rest = [_lesser(keys, _images(tables, c)) for keys, c in zip(rest, columns[1:])]
    return (least, fixed, *rest)


def orbit_partition(
    trees: list[EdgeSet], autos: list[VertexPermutation], g: LabeledGraph
) -> OrbitReport:
    """Partition edge sets into orbits keyed by their least image.

    `autos` must be a group that contains the identity, as
    `automorphisms` returns.  Two sets then share an orbit exactly when
    their least images under the group agree, so each set is keyed once,
    by the image fold (`_least_images`).  Orbits, and the members of each,
    keep first-seen order, and each orbit's representative is its first
    member.
    """
    keys, _ = _least_images(g, autos, trees)
    orbits: dict[int, list[EdgeSet]] = {}
    for key, tree in zip(keys, trees):
        orbits.setdefault(key, []).append(tree)
    return OrbitReport(
        tuple((members[0], tuple(members)) for members in orbits.values()), len(autos)
    )


def burnside_count(
    trees: list[EdgeSet], autos: list[VertexPermutation], g: LabeledGraph
) -> int:
    """Orbit count as (sum of fixed trees per group element) / group order,
    over the distinct masks, with the fixed points counted by the image
    fold (`_least_images`)."""
    _, total = _least_images(g, autos, list(set(trees)))
    if total % len(autos) != 0:
        raise NonIntegralResult(
            f"{total} fixed points not divisible by group order {len(autos)}"
        )
    return total // len(autos)


def kirchhoff_count(g: LabeledGraph) -> int:
    """Spanning-tree count by the reduced Laplacian determinant, exactly."""
    n = g.n
    if n <= 1:
        return 1 if n == 1 else 0
    vidx = g.vertex_index
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        iu, iv = vidx[u], vidx[v]
        lap[iu][iu] += 1
        lap[iv][iv] += 1
        lap[iu][iv] -= 1
        lap[iv][iu] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _integer_determinant(minor)


def _integer_determinant(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination; exact over the integers."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
