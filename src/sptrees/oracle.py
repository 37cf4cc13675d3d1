"""Brute-force ground truth for spanning trees, automorphisms, and orbits.

Everything here works on labeled graphs only, never on decomposition
trees, so agreement checks exercise the whole pipeline.  One
backtracking forest generator yields the spanning trees and the near
sets; orbits are keyed by each set's least image under the group's edge
maps.  The default vertex limit keeps worst-case backtracking around a
second; raise it explicitly for stress runs.
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
    comp[v] names the component of vertex v; an edge that joins two
    components relabels one of them (quick-find, O(n) on small graphs).
    """
    vidx = g.vertex_index
    endpoints = [(vidx[u], vidx[v]) for u, v in g.edges]
    m = len(endpoints)
    stack = [(0, 0, 0, list(range(g.n)))]
    while stack:
        pos, mask, size, comp = stack.pop()
        if size == k:
            yield mask, comp
        elif m - pos >= k - size:
            stack.append((pos + 1, mask, size, comp))
            u, v = endpoints[pos]
            a, b = comp[u], comp[v]
            if a != b:
                merged = [a if c == b else c for c in comp]
                stack.append((pos + 1, mask | 1 << pos, size + 1, merged))


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

    Backtracking extension over vertices in sorted order, pruned by
    degree and by adjacency against already-assigned vertices; the
    identity is always included and the result is closed under
    composition (a group).
    """
    _check_limit(g, limit)
    verts = list(g.vertices)
    adj = g.adjacency
    degree = {v: len(adj[v]) for v in verts}
    out: list[VertexPermutation] = []

    def allowed(v: str, image: str, partial: dict[str, str]) -> bool:
        if degree[v] != degree[image]:
            return False
        if isinstance(policy, FixBoth):
            if v == policy.s and image != policy.s:
                return False
            if v == policy.t and image != policy.t:
                return False
            if image == policy.s and v != policy.s:
                return False
            if image == policy.t and v != policy.t:
                return False
        elif isinstance(policy, FixSet):
            pair = {policy.s, policy.t}
            if (v in pair) != (image in pair):
                return False
        for w, wimg in partial.items():
            if (w in adj[v]) != (wimg in adj[image]):
                return False
        return True

    def recurse(i: int, partial: dict[str, str], used: set[str]) -> None:
        if i == len(verts):
            out.append(dict(partial))
            return
        v = verts[i]
        for image in verts:
            if image in used or not allowed(v, image, partial):
                continue
            partial[v] = image
            used.add(image)
            recurse(i + 1, partial, used)
            del partial[v]
            used.discard(image)

    recurse(0, {}, set())
    return out


def _edge_map(g: LabeledGraph, sigma: VertexPermutation) -> dict[int, int]:
    """The edge-index map a vertex permutation induces."""
    return {i: g.index_of(sigma[u], sigma[v]) for i, (u, v) in enumerate(g.edges)}


def apply_permutation(g: LabeledGraph, sigma: VertexPermutation, es: EdgeSet) -> EdgeSet:
    return EdgeSet(mask_image(es.mask, _edge_map(g, sigma)))


def orbit_partition(
    trees: list[EdgeSet], autos: list[VertexPermutation], g: LabeledGraph
) -> OrbitReport:
    """Partition edge sets into orbits keyed by their least image.

    `autos` must be a group that contains the identity, as
    `automorphisms` returns.  Two sets then share an orbit exactly when
    their least images under the group agree, so each set is keyed once.
    Orbits, and the members of each, keep first-seen order, and each
    orbit's representative is its first member.
    """
    maps = [_edge_map(g, sigma) for sigma in autos]
    orbits: dict[int, list[EdgeSet]] = {}
    for tree in trees:
        key = min(mask_image(tree.mask, f) for f in maps)
        orbits.setdefault(key, []).append(tree)
    return OrbitReport(
        tuple((members[0], tuple(members)) for members in orbits.values()), len(autos)
    )


def burnside_count(
    trees: list[EdgeSet], autos: list[VertexPermutation], g: LabeledGraph
) -> int:
    """Orbit count as (sum of fixed trees per group element) / group order."""
    masks = {es.mask for es in trees}
    total = 0
    for sigma in autos:
        f = _edge_map(g, sigma)
        total += sum(1 for mask in masks if mask_image(mask, f) == mask)
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
