"""Brute-force ground truth for spanning trees, automorphisms, and orbits.

Everything here works on labeled graphs only, never on decomposition
trees, so agreement checks exercise the whole pipeline.  The default
vertex limit keeps worst-case backtracking around a second; raise it
explicitly for stress runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

from .core import EdgeSet, LabeledGraph, _UnionFind

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


def all_spanning_trees(g: LabeledGraph, limit: int = DEFAULT_LIMIT) -> list[EdgeSet]:
    """Every spanning tree exactly once, by backtracking over edge inclusion."""
    _check_limit(g, limit)
    n, m = g.n, g.m
    vidx = g.vertex_index
    endpoints = [(vidx[u], vidx[v]) for u, v in g.edges]
    out: list[EdgeSet] = []

    def recurse(pos: int, parents: list[int], chosen: int, count: int) -> None:
        if count == n - 1:
            out.append(EdgeSet(chosen))
            return
        if m - pos < n - 1 - count:
            return
        u, v = endpoints[pos]
        uf = _UnionFind(n)
        uf.parent = parents[:]
        if uf.union(u, v):
            recurse(pos + 1, uf.parent, chosen | (1 << pos), count + 1)
        recurse(pos + 1, parents, chosen, count)

    recurse(0, list(range(n)), 0, 0)
    return out


def _acyclic_subsets(g: LabeledGraph):
    """Each (n-2)-edge acyclic subset in combination order, with its union-find."""
    vidx = g.vertex_index
    endpoints = [(vidx[u], vidx[v]) for u, v in g.edges]
    for combo in itertools.combinations(range(g.m), g.n - 2):
        uf = _UnionFind(g.n)
        for i in combo:
            if not uf.union(*endpoints[i]):
                break
        else:
            yield combo, uf


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
    return [EdgeSet.of(combo) for combo, uf in _acyclic_subsets(g) if uf.find(si) != uf.find(ti)]


def all_acyclic_near_sets(g: LabeledGraph, limit: int = DEFAULT_LIMIT) -> list[EdgeSet]:
    """All (n-2)-edge acyclic sets, terminal-free (spanning tree minus an edge)."""
    _check_limit(g, limit)
    return [EdgeSet.of(combo) for combo, _ in _acyclic_subsets(g)]


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


def apply_permutation(g: LabeledGraph, sigma: VertexPermutation, es: EdgeSet) -> EdgeSet:
    mask = 0
    for i in es.indices():
        u, v = g.edges[i]
        mask |= 1 << g.index_of(sigma[u], sigma[v])
    return EdgeSet(mask)


def orbit_partition(
    trees: list[EdgeSet], autos: list[VertexPermutation], g: LabeledGraph
) -> OrbitReport:
    """Partition edge sets into orbits by representative matching.

    For each tree, try every known representative and every group
    element; the first match wins, otherwise the tree founds a new
    orbit.  Representatives are therefore first-encountered members.
    """
    orbits: list[tuple[EdgeSet, list[EdgeSet]]] = []
    for tree in trees:
        matched = False
        for rep, members in orbits:
            if matched:
                break
            for sigma in autos:
                if apply_permutation(g, sigma, tree) == rep:
                    members.append(tree)
                    matched = True
                    break
        if not matched:
            orbits.append((tree, [tree]))
    return OrbitReport(
        tuple((rep, tuple(members)) for rep, members in orbits), len(autos)
    )


def burnside_count(
    trees: list[EdgeSet], autos: list[VertexPermutation], g: LabeledGraph
) -> int:
    """Orbit count as (sum of fixed trees per group element) / group order."""
    tree_set = set(trees)
    total = 0
    for sigma in autos:
        total += sum(1 for t in tree_set if apply_permutation(g, sigma, t) == t)
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
