"""Brute-force ground truth for spanning trees, automorphisms, and orbits.

Everything here works on labeled graphs only, never on decomposition
trees, so agreement checks exercise the whole pipeline.  Each step does
its inner work in C-level operations on ints and strings:

- one backtracking forest generator yields the spanning trees and the
  near sets, with component labels held one character per vertex in a
  `str` and merged by `str.replace`;
- the automorphism search holds adjacency as vertex bitmasks and
  accepts a candidate image with one AND and compare;
- orbits are keyed by each set's least image under the group, and
  Burnside counts the sets each element fixes.  Both map all sets under
  one group element at a time through per-byte tables of its edge map.

The default vertex limit keeps worst-case backtracking around a second;
raise it explicitly for stress runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import EdgeSet, LabeledGraph, mask_image

DEFAULT_LIMIT = 12


class LimitExceeded(ValueError):
    pass


class NonIntegralResult(ValueError):
    pass


@dataclass(frozen=True)
class FixBoth:
    s: str
    t: str


@dataclass(frozen=True)
class FixSet:
    s: str
    t: str


@dataclass(frozen=True)
class FixNone:
    pass


FixPolicy = Union[FixBoth, FixSet, FixNone]

VertexPermutation = dict  # vertex label -> vertex label


@dataclass(frozen=True)
class OrbitReport:
    """Orbit partition of a collection of edge sets under a group."""

    orbits: tuple[tuple[EdgeSet, tuple[EdgeSet, ...]], ...]
    group_order: int

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


def _forests(g: LabeledGraph, k: int):
    """Each acyclic k-edge subset as (mask, comp), in combination order.

    Backtracking over the edges on an explicit stack: edge i is tried in
    before out, and a branch ends once its edge closes a cycle or too few
    edges remain, so the subsets come in `itertools.combinations` order.
    comp is a `str` with one character per vertex naming its component;
    an edge that joins two components relabels one with `str.replace`
    (quick-find in one C-level pass).  A `str` holds a label for every
    vertex at any n.
    """
    vidx = g.vertex_index
    endpoints = [(vidx[u], vidx[v]) for u, v in g.edges]
    m = len(endpoints)
    stack = [(0, 0, 0, "".join(map(chr, range(g.n))))]
    while stack:
        pos, mask, size, comp = stack.pop()
        if size == k:
            yield mask, comp
        elif m - pos >= k - size:
            stack.append((pos + 1, mask, size, comp))
            u, v = endpoints[pos]
            a, b = comp[u], comp[v]
            if a != b:
                stack.append((pos + 1, mask | 1 << pos, size + 1, comp.replace(b, a)))


def all_spanning_trees(g: LabeledGraph, limit: int = DEFAULT_LIMIT) -> list[EdgeSet]:
    """Every spanning tree exactly once: the acyclic (n-1)-edge sets."""
    _check_limit(g, limit)
    return [EdgeSet(mask) for mask, _ in _forests(g, g.n - 1)]


def all_near_trees(
    g: LabeledGraph, s: str, t: str, limit: int = DEFAULT_LIMIT
) -> list[EdgeSet]:
    """Two-component spanning forests separating s from t.

    These are the near trees the series-parallel composition consumes:
    every (n-2)-edge acyclic set has exactly two components, and it can
    sit under a sibling branch that connects the terminals only if s
    and t are in different components.
    """
    _check_limit(g, limit)
    si, ti = g.vertex_index[s], g.vertex_index[t]
    return [
        EdgeSet(mask) for mask, comp in _forests(g, g.n - 2) if comp[si] != comp[ti]
    ]


def all_acyclic_near_sets(g: LabeledGraph, limit: int = DEFAULT_LIMIT) -> list[EdgeSet]:
    """All (n-2)-edge acyclic sets, terminal-free (spanning tree minus an edge)."""
    _check_limit(g, limit)
    return [EdgeSet(mask) for mask, _ in _forests(g, g.n - 2)]


def automorphisms(
    g: LabeledGraph, policy: FixPolicy = FixNone(), limit: int = DEFAULT_LIMIT
) -> list[VertexPermutation]:
    """The full automorphism group satisfying the fixing policy.

    Backtracking extension over the vertices in `g.vertices` order.
    Vertex i may map to any unused vertex of equal degree in the same
    policy class (FixBoth pins s and t, FixSet keeps {s, t}), tried in
    the same order.  Adjacency is held as vertex bitmasks, so candidate
    j is checked against every vertex already assigned with one AND and
    compare: the assigned images adjacent to j must be exactly the
    images of i's assigned neighbours.  The identity is always included,
    the permutations come in lexicographic order of their images, and
    the result is closed under composition (a group).
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
    candidates = [[j for j in range(n) if kind[j] == kind[i]] for i in range(n)]
    earlier = [[w for w in range(i) if nbrs[i] >> w & 1] for i in range(n)]
    image = [0] * n
    out: list[VertexPermutation] = []

    def extend(i: int, used: int) -> None:
        if i == n:
            out.append(dict(zip(verts, [verts[j] for j in image])))
            return
        want = sum([1 << image[w] for w in earlier[i]])
        for j in candidates[i]:
            if not used >> j & 1 and nbrs[j] & used == want:
                image[i] = j
                extend(i + 1, used | 1 << j)

    extend(0, 0)
    return out


def _edge_map(g: LabeledGraph, sigma: VertexPermutation) -> list[int]:
    """The edge-index map a vertex permutation induces: edge i maps to entry i."""
    return [g.index_of(sigma[u], sigma[v]) for u, v in g.edges]


def apply_permutation(g: LabeledGraph, sigma: VertexPermutation, es: EdgeSet) -> EdgeSet:
    return EdgeSet(mask_image(es.mask, _edge_map(g, sigma)))


def _mask_bytes(masks, m: int) -> list[bytes]:
    """Each mask of an m-edge graph as the little-endian bytes `_images` reads."""
    width = (m + 7) // 8
    return [mask.to_bytes(width, "little") for mask in masks]


def _images(edge_map: list[int], rows: list[bytes]) -> list[int]:
    """Image under an edge permutation of each mask, given as its
    `_mask_bytes` row.

    Table k covers edges 8k … 8k+7: entry b is the OR of the images of
    b's set bits, built by doubling.  A mask's image is the sum of one
    entry per byte; the entries of distinct bytes have disjoint bits, as
    the map is a bijection, so the sum is their OR."""
    tables = []
    for lo in range(0, len(edge_map), 8):
        table = [0]
        for i in edge_map[lo : lo + 8]:
            bit = 1 << i
            table += [entry | bit for entry in table]
        tables.append(table)
    return [sum(map(list.__getitem__, tables, row)) for row in rows]


def orbit_partition(
    trees: list[EdgeSet], autos: list[VertexPermutation], g: LabeledGraph
) -> OrbitReport:
    """Partition edge sets into orbits keyed by their least image.

    `autos` must be a group that contains the identity, as
    `automorphisms` returns.  Two sets then share an orbit exactly when
    their least images under the group agree, so each set is keyed once.
    The sets are mapped one group element at a time through its byte
    tables (`_images`), and each set keeps a running least image, so
    memory stays at one key per set plus one element's tables.  Orbits,
    and the members of each, keep first-seen order, and each orbit's
    representative is its first member.
    """
    keys = [tree.mask for tree in trees]
    rows = _mask_bytes(keys, g.m)
    for sigma in autos:
        keys = list(map(min, keys, _images(_edge_map(g, sigma), rows)))
    orbits: dict[int, list[EdgeSet]] = {}
    for key, tree in zip(keys, trees):
        orbits.setdefault(key, []).append(tree)
    return OrbitReport(
        tuple((members[0], tuple(members)) for members in orbits.values()), len(autos)
    )


def burnside_count(
    trees: list[EdgeSet], autos: list[VertexPermutation], g: LabeledGraph
) -> int:
    """Orbit count as (sum of fixed trees per group element) / group order.

    Each group element maps the distinct masks through its byte tables
    (`_images`) and counts the masks equal to their image."""
    masks = list({es.mask for es in trees})
    rows = _mask_bytes(masks, g.m)
    total = 0
    for sigma in autos:
        total += sum(map(int.__eq__, _images(_edge_map(g, sigma), rows), masks))
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
