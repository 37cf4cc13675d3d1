"""Seeded inputs for the sptrees benchmark, with references that do not use sptrees.

Each workload is a fixed batch of ops ("one pass").  The seed decides vertex
labels, the order of P children and edge-list lines, the random draws, the
spanning tree handed to `spanning_tree_index` and the order of ops in the pass;
instance sizes are fixed per workload so that the cost of a pass barely moves
from seed to seed.

An SP expression is built here as a nested tuple: ("e", u, v) for an edge,
("S", [children]) for a series node and ("P", [children]) for a parallel node.
Only its text reaches the program.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("count-large", "enumerate-stream", "verify-oracle")

# Why each workload is in the benchmark (copied into BENCHMARK.json).
WHY = {
    "count-large": (
        "S/P nesting, triangle chains, P of chains, path and ladder edge lists, the "
        "800-edge path: parse, normalize, codes, plan and counts go super-linear; no "
        "enumeration or oracle"
    ),
    "enumerate-stream": (
        "CLI enumerate of palindromic block series, chain bundles and random draws in "
        "4 modes: materialization, reversal filter and formatting dominate; parsing is "
        "negligible"
    ),
    "verify-oracle": (
        "CLI verify of random and mirror-symmetric draws with 8-11 vertices: the "
        "brute-force oracle does nearly all the work; other layers should not move it"
    ),
}

# count-large sizes per family.  The two largest ladders are the two slowest
# ops, so the p90 latency falls on them rather than between families.
COUNT_SIZES = {
    "nest": (40, 80, 120),
    "triangles": (150, 300, 600),
    "pchains": (150, 300, 600),
    "path": (100, 250, 500),
    "ladder": (20, 40, 68, 72),
}
PATH800_EDGES = 800

ENUM_MODES = {
    "oriented": ["--mode", "oriented"],
    "near": ["--mode", "oriented", "--near"],
    "semioriented": ["--mode", "semioriented"],
    "records": ["--mode", "oriented", "--format", "records"],
}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def to_text(node) -> str:
    if node[0] == "e":
        return f"e({node[1]},{node[2]})"
    return node[0] + "(" + ",".join(to_text(c) for c in node[1]) + ")"


def edges_of(node, out=None) -> list[tuple[str, str]]:
    out = [] if out is None else out
    if node[0] == "e":
        out.append((node[1], node[2]))
    else:
        for child in node[1]:
            edges_of(child, out)
    return out


def vertex_count(edges) -> int:
    return len({v for e in edges for v in e})


def total_counts(node) -> tuple[int, int]:
    """(spanning trees, two-component forests separating the terminals)."""
    if node[0] == "e":
        return 1, 1
    pairs = [total_counts(c) for c in node[1]]
    whole = [p[0] for p in pairs] if node[0] == "S" else [p[1] for p in pairs]
    broken = [p[1] for p in pairs] if node[0] == "S" else [p[0] for p in pairs]
    prod = math.prod(whole)
    one_broken = sum(
        broken[j] * math.prod(whole[:j] + whole[j + 1:]) for j in range(len(pairs))
    )
    return (prod, one_broken) if node[0] == "S" else (one_broken, prod)


def oriented_counts(node) -> tuple[str, int, int]:
    """(shape code, oriented spanning count, oriented near count).

    Children of a P node with equal shape codes are interchangeable; a class
    of c such children with r near trees contributes C(r+c-1, c) multisets.
    """
    if node[0] == "e":
        return "E", 1, 1
    kids = [oriented_counts(c) for c in node[1]]
    if node[0] == "S":
        st = math.prod(k[1] for k in kids)
        nt = sum(
            kids[j][2] * math.prod(k[1] for i, k in enumerate(kids) if i != j)
            for j in range(len(kids))
        )
        return "S(" + "".join(k[0] for k in kids) + ")", st, nt
    classes: dict[str, list] = {}
    for code, st, nt in kids:
        classes.setdefault(code, [st, nt, 0])[2] += 1
    nc = [math.comb(nt + c - 1, c) for st, nt, c in classes.values()]
    sc = [st * math.comb(nt + c - 2, c - 1) for st, nt, c in classes.values()]
    near = math.prod(nc)
    span = sum(sc[a] * math.prod(nc[:a] + nc[a + 1:]) for a in range(len(nc)))
    return "P(" + "".join(sorted(k[0] for k in kids)) + ")", span, near


class Labels:
    """Fresh, seeded, distinct vertex labels."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self) -> str:
        while True:
            label = "v" + format(self.rng.getrandbits(28), "x")
            if label not in self.used:
                self.used.add(label)
                return label


def shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def mirror(node, source: str, target: str, fresh):
    """Copy of `node` with its terminals exchanged, placed between new terminals.

    `node` runs from its own source a to its own target b; the copy runs
    from `source` (the image of b) to `target` (the image of a).
    """
    a, b = terminals(node)
    names = {b: source, a: target}

    def label(v):
        if v not in names:
            names[v] = fresh()
        return names[v]

    def build(nd):
        if nd[0] == "e":
            return ("e", label(nd[2]), label(nd[1]))
        kids = [build(c) for c in nd[1]]
        return (nd[0], kids[::-1] if nd[0] == "S" else kids)

    return build(node)


def terminals(node) -> tuple[str, str]:
    if node[0] == "e":
        return node[1], node[2]
    if node[0] == "P":
        return terminals(node[1][0])
    return terminals(node[1][0])[0], terminals(node[1][-1])[1]


def random_tree(rng: random.Random, fresh, depth: int, width: int, leaf_bias: float):
    """Random valid SP expression; S and P levels alternate and a P node has
    at most one bare edge, so there are no parallel edges."""

    def build(kind, d, s, t):
        k = rng.randint(2, width)
        if kind == "S":
            ends = [s] + [fresh() for _ in range(k - 1)] + [t]
            return ("S", [
                ("e", ends[i], ends[i + 1])
                if d - 1 < 2 or rng.random() < leaf_bias
                else build("P", d - 1, ends[i], ends[i + 1])
                for i in range(k)
            ])
        kids = [build("S", d - 1, s, t) for _ in range(k)]
        if rng.random() < leaf_bias:
            kids[0] = ("e", s, t)
        return ("P", shuffled(rng, kids))

    return build(rng.choice("SP"), depth, fresh(), fresh())


# ---------------------------------------------------------------------------
# count-large families
# ---------------------------------------------------------------------------


def nest(rng, fresh, depth: int):
    """Alternating P(e, S(e, P(...))) nesting; the edge of each S level sits
    on a seeded side and P children are shuffled."""

    def build(kind, d, s, t):
        if d == 0 or kind == "P" and d == 1:  # P(e, e) would be a multi-edge
            return ("e", s, t)
        if kind == "P":
            return ("P", shuffled(rng, [("e", s, t), build("S", d - 1, s, t)]))
        m = fresh()
        if rng.random() < 0.5:
            return ("S", [("e", s, m), build("P", d - 1, m, t)])
        return ("S", [build("P", d - 1, s, m), ("e", m, t)])

    return build("P", depth, fresh(), fresh())


def triangles(rng, fresh, k: int):
    ends = [fresh() for _ in range(k + 1)]
    blocks = []
    for i in range(k):
        a, b, x = ends[i], ends[i + 1], fresh()
        blocks.append(("P", shuffled(rng, [("e", a, b), ("S", [("e", a, x), ("e", x, b)])])))
    return ("S", blocks)


def pchains(rng, fresh, k: int):
    s, t = fresh(), fresh()
    chains = []
    for _ in range(k):
        a = fresh()
        chains.append(("S", [("e", s, a), ("e", a, t)]))
    return ("P", chains)


def edge_list_text(rng, edges, s: str, t: str) -> str:
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    return f"terminals {s} {t}\n" + "\n".join(shuffled(rng, lines)) + "\n"


def path_edges(labels):
    return [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]


def ladder_edges(a, b):
    rungs = list(zip(a, b))
    return rungs + path_edges(a) + path_edges(b)


def ladder_total(rungs: int) -> int:
    """Spanning trees of the 2 x L ladder: 1, 4, 15, 56, ... (t_L = 4 t_{L-1} - t_{L-2})."""
    prev, cur = 0, 1
    for _ in range(rungs - 1):
        prev, cur = cur, 4 * cur - prev
    return cur


def kruskal(rng, edges) -> list[tuple[str, str]]:
    """A seeded random spanning tree, by Kruskal over shuffled edges."""
    parent: dict[str, str] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for u, v in shuffled(rng, edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
    return tree


def count_large(rng):
    """Files and ops; each op's reference counts come from closed forms
    (triangles, P-chains, paths, ladders) or from `total_counts` on the
    generator's own tree (nest, where every P node has two unlike children,
    so the oriented count equals the total)."""
    files, ops = {}, []

    def add(name, text, edges, total, oriented, semi):
        files[name] = text
        ops.append({
            "name": name,
            "file": name,
            "tree": kruskal(rng, edges),
            "ref": {
                "total": str(total),
                "oriented": str(oriented),
                "semi": None if semi is None else str(semi),
            },
        })

    for size in COUNT_SIZES["nest"]:
        node = nest(rng, Labels(rng), size)
        total = total_counts(node)[0]
        add(f"nest{size}.sp", to_text(node) + "\n", edges_of(node), total, total, None)
    for k in COUNT_SIZES["triangles"]:
        node = triangles(rng, Labels(rng), k)
        add(f"triangles{k}.sp", to_text(node) + "\n", edges_of(node),
            3 ** k, 3 ** k, (3 ** k + 3 ** (k // 2)) // 2)
    for k in COUNT_SIZES["pchains"]:
        node = pchains(rng, Labels(rng), k)
        add(f"pchains{k}.sp", to_text(node) + "\n", edges_of(node),
            k * 2 ** (k - 1), k, (k + 1) // 2)
    for k in COUNT_SIZES["path"]:
        fresh = Labels(rng)
        labels = [fresh() for _ in range(k + 1)]
        edges = path_edges(labels)
        add(f"path{k}.el", edge_list_text(rng, edges, labels[0], labels[-1]),
            edges, 1, 1, 1)
    for rungs in COUNT_SIZES["ladder"]:
        fresh = Labels(rng)
        a = [fresh() for _ in range(rungs)]
        b = [fresh() for _ in range(rungs)]
        edges = ladder_edges(a, b)
        total = ladder_total(rungs)
        add(f"ladder{rungs}.el", edge_list_text(rng, edges, a[0], b[0]),
            edges, total, total, None)
    # The ROADMAP instance keeps its labels v0..v800 along the path; only the
    # line order is seeded.
    labels = [f"v{i}" for i in range(PATH800_EDGES + 1)]
    edges = path_edges(labels)
    add("path800.el", edge_list_text(rng, edges, labels[0], labels[-1]),
        edges, 1, 1, 1)
    return files, ops


# ---------------------------------------------------------------------------
# enumerate-stream families
# ---------------------------------------------------------------------------



def chain(ends):
    return ("S", [("e", ends[i], ends[i + 1]) for i in range(len(ends) - 1)])


def block(kind: int, a: str, b: str, fresh):
    """A self-mirror block between a and b with `kind` oriented spanning trees:
    3 is a triangle, 4 an edge beside a 3-edge chain, 5 an edge beside two
    2-edge chains."""
    if kind == 3:
        return ("P", [("e", a, b), chain([a, fresh(), b])])
    if kind == 4:
        return ("P", [("e", a, b), chain([a, fresh(), fresh(), b])])
    return ("P", [("e", a, b), chain([a, fresh(), b]), chain([a, fresh(), b])])


# Block kinds of one half and of the middle of each 7-block palindrome: about
# 6.5e3 and 1.1e4 oriented trees and 3e4 and 5e4 near trees.  The seed orders
# the half.
PALINDROMES = (((3, 3, 4), 5), ((3, 4, 5), 3))
BUNDLES = ((44, 3), (22, 4))  # (chains, edges per chain)
RANDOM_TARGETS = (900, 2400)


def pick(draw, cost, targets, pool_size: int) -> list:
    """For each target in turn, the unused draw whose cost is nearest to it
    on a log scale, out of `pool_size` draws; draws of cost None are dropped."""
    pool = []
    for _ in range(pool_size):
        item = draw()
        value = cost(item)
        if value:
            pool.append((value, item))
    picked = []
    for target in targets:
        best = min(range(len(pool)), key=lambda i: abs(math.log(pool[i][0] / target)))
        picked.append(pool.pop(best)[1])
    return picked


def palindrome(rng, fresh, half, middle):
    """Series of self-mirror blocks that reads the same both ways."""
    half = shuffled(rng, half)
    kinds = half + [middle] + half[::-1]
    ends = [fresh() for _ in range(len(kinds) + 1)]
    node = ("S", [block(k, ends[i], ends[i + 1], fresh) for i, k in enumerate(kinds)])
    return shuffle_parallel(rng, node)


def shuffle_parallel(rng, node):
    if node[0] == "e":
        return node
    kids = [shuffle_parallel(rng, c) for c in node[1]]
    return (node[0], shuffled(rng, kids) if node[0] == "P" else kids)


def bundle(fresh, chains: int, length: int):
    s, t = fresh(), fresh()
    return ("P", [chain([s] + [fresh() for _ in range(length - 1)] + [t]) for _ in range(chains)])


def enumerate_stream(rng):
    files, ops = {}, []
    instances = []
    fresh = Labels(rng)
    for i, (half, middle) in enumerate(PALINDROMES):
        instances.append((f"palindrome{i}.sp", palindrome(rng, fresh, half, middle)))
    for i, (chains, length) in enumerate(BUNDLES):
        instances.append((f"bundle{i}.sp", bundle(fresh, chains, length)))
    draws = pick(
        lambda: random_tree(rng, fresh, depth=5, width=3, leaf_bias=0.3),
        lambda node: oriented_counts(node)[1],
        RANDOM_TARGETS,
        300,
    )
    for i, node in enumerate(draws):
        instances.append((f"random{i}.sp", node))
    for name, node in instances:
        files[name] = to_text(node) + "\n"
        edges = edges_of(node)
        for mode, argv in ENUM_MODES.items():
            ops.append({
                "name": f"{name}:{mode}",
                    "file": name,
                "mode": mode,
                "argv": ["enumerate", name] + argv,
                "edges": edges,
                "terminals": list(terminals(node)),
            })
    return files, ops


# ---------------------------------------------------------------------------
# verify-oracle families
# ---------------------------------------------------------------------------

VERIFY_VERTICES = (8, 11)
# Targets for a proxy of the oracle's cost: orbit partitioning compares each
# tree with the orbits found so far under every automorphism, which is about
# a square of the tree count whatever the group order, and each comparison
# maps n - 1 edges.
# Targets grow by 1.35x a level.  Three targets sit on the middle level and
# three on the top one, so the median and the p90 latency each fall among
# several instances of one size rather than between two sizes.
VERIFY_TARGETS = tuple(2e4 * 1.35 ** level for level in (0, 1.5, 3, 4, 4, 4, 5, 6.5, 8, 8, 8))


def oracle_cost(node):
    edges = edges_of(node)
    n = vertex_count(edges)
    if not VERIFY_VERTICES[0] <= n <= VERIFY_VERTICES[1]:
        return None
    spanning, near = total_counts(node)
    return n * (spanning ** 2 + near ** 2 / 2)


def mirrored_draw(rng, fresh):
    """S(X, mirror X) or P(X, mirror X) for a random X."""
    x = random_tree(rng, fresh, depth=3, width=3, leaf_bias=0.4)
    s, t = terminals(x)
    # A P root may hold the edge s-t, which its mirror would duplicate.
    if x[0] == "S" and rng.random() < 0.5:
        return ("P", [x, mirror(x, s, t, fresh)])
    return ("S", [x, mirror(x, t, fresh(), fresh)])


def verify_oracle(rng):
    files, ops = {}, []
    fresh = Labels(rng)
    draws = {
        "random": lambda: random_tree(rng, fresh, depth=4, width=3, leaf_bias=0.4),
        "mirror": lambda: mirrored_draw(rng, fresh),
    }
    for kind, draw in draws.items():
        for i, node in enumerate(pick(draw, oracle_cost, VERIFY_TARGETS, 600)):
            name = f"{kind}{i}.sp"
            files[name] = to_text(node) + "\n"
            spanning, near = total_counts(node)
            ops.append({
                "name": name,
                "file": name,
                "argv": ["verify", name],
                "keep": True,
                "ref": {"total": spanning, "near": near},
            })
    return files, ops


def build(workload: str, seed: int) -> dict:
    """The pass for one workload and seed: input files and ops, in pass order."""
    rng = random.Random(f"{workload}/{seed}")
    maker = {
        "count-large": count_large,
        "enumerate-stream": enumerate_stream,
        "verify-oracle": verify_oracle,
    }[workload]
    files, ops = maker(rng)
    rng.shuffle(ops)
    return {"workload": workload, "files": files, "ops": ops}
