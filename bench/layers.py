"""Per-layer spans for the sptrees benchmark, installed from outside the package.

`install` rebinds each traced function in every sptrees module namespace that
holds it, so calls from the benchmark and calls between modules both pass
through a wrapper.  On an outermost call the wrapper puts the original
functions back for the length of the call: recursive calls, such as those of
`canonical_code`, then run unwrapped, so tracing adds no stack frames to a
recursive path and times only outermost calls.  `calls` therefore counts
outermost calls.  Two hot functions are counted without spans.

Nothing under src/ changes; spans stay in memory until the run ends.
"""

from __future__ import annotations

import math
import sys

LAYERS = {
    "core": ("normalize", "underlying_graph"),
    "expr": ("read_instances", "parse_sp", "decompose_edge_list"),
    "canonical": (
        "canonical_code",
        "reversal_code",
        "iso_map",
        "partition_classes",
        "mirror_pairing",
    ),
    "generate": (
        "build_plan",
        "count_oriented",
        "count_total",
        "oriented_spanning",
        "oriented_both",
        "spanning_tree_index",
    ),
    "semi": ("count_semioriented", "semioriented_spanning"),
    "oracle": (
        "all_spanning_trees",
        "all_near_trees",
        "automorphisms",
        "orbit_partition",
        "burnside_count",
        "kirchhoff_count",
    ),
    "cli": ("run", "verify_instance"),
}
# Counted only: each is called up to millions of times per pass.
COUNTED = {"core": ("EdgeSet.mapped",), "oracle": ("apply_permutation",)}
# Enumeration calls behind generate.ns_per_n_tree, by mode.
ENUMERATORS = {
    "generate.oriented_spanning": "oriented",
    "generate.oriented_both": "near",
    "semi.semioriented_spanning": "semioriented",
}
DERIVED = (
    ("semi.keep_ratio", "ratio"),
    ("oracle.near_yield", "ratio"),
    ("generate.ns_per_n_tree.oriented", "ns"),
    ("generate.ns_per_n_tree.near", "ns"),
    ("generate.ns_per_n_tree.semioriented", "ns"),
    ("trace.overhead_s", "s"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.s"] = "s"
            units[f"{layer}.{name}.self_s"] = "s"
        for name in COUNTED.get(layer, ()):
            units[f"{layer}.{name}.calls"] = "count"
    units.update(DERIVED)
    return units


class Tracer:
    """Spans (id, name, start, end, parent id, op id) and per-name sums."""

    def __init__(self, clock):
        self.clock = clock
        self.op = None
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.next_id = 0
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.tally: dict[str, float] = {}

    def begin(self, name: str) -> None:
        self.stack.append([self.next_id, name, self.clock(), 0.0])
        self.next_id += 1

    def end(self) -> float:
        end = self.clock()
        span_id, name, start, covered = self.stack.pop()
        seconds = end - start
        parent = None
        if self.stack:
            self.stack[-1][3] += seconds
            parent = self.stack[-1][0]
        self.spans.append((span_id, name, start, end, parent, self.op))
        self.inclusive[name] = self.inclusive.get(name, 0.0) + seconds
        self.self_time[name] = self.self_time.get(name, 0.0) + seconds - covered
        return seconds

    def add(self, key: str, value: float) -> None:
        self.tally[key] = self.tally.get(key, 0.0) + value


def vertex_count(g) -> int:
    stack, seen = [getattr(g, "tree", g)], set()
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(node.children)
        else:
            seen.update((node.source, node.target))
    return len(seen)


def _near_hook(tracer, args, result, seconds):
    g = args[0]
    tracer.add("near.found", len(result))
    tracer.add("near.scanned", math.comb(g.m, g.n - 2))


def _enumerator_hook(mode):
    def hook(tracer, args, result, seconds):
        trees = sum(map(len, result)) if mode == "near" else len(result)
        tracer.add(f"{mode}.s", seconds)
        tracer.add(f"{mode}.n_trees", vertex_count(args[0]) * trees)

    return hook


HOOKS = {"oracle.all_near_trees": _near_hook}
HOOKS.update({name: _enumerator_hook(mode) for name, mode in ENUMERATORS.items()})


def _bindings(modules, obj):
    return [(m, attr) for m in modules for attr, value in vars(m).items() if value is obj]


def _spanned(tracer, name, original, bindings, hook):
    def wrapper(*args, **kwargs):
        for module, attr in bindings:
            setattr(module, attr, original)
        tracer.calls[name] += 1
        tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            seconds = tracer.end()
            for module, attr in bindings:
                setattr(module, attr, wrapper)
        if hook is not None:
            hook(tracer, args, result, seconds)
        return result

    return wrapper


def _counted(tracer, name, original):
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        return original(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported sptrees package."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "sptrees"]
    for layer, names in LAYERS.items():
        home = sys.modules[f"sptrees.{layer}"]
        for fname in names:
            name = f"{layer}.{fname}"
            original = getattr(home, fname)
            bindings = _bindings(modules, original)
            tracer.calls[name] = 0
            wrapper = _spanned(tracer, name, original, bindings, HOOKS.get(name))
            for module, attr in bindings:
                setattr(module, attr, wrapper)
    for layer, names in COUNTED.items():
        home = sys.modules[f"sptrees.{layer}"]
        for dotted in names:
            name = f"{layer}.{dotted}"
            tracer.calls[name] = 0
            owner_name, _, attr = dotted.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                setattr(owner, attr, _counted(tracer, name, getattr(owner, attr)))
            else:
                original = getattr(home, attr)
                wrapper = _counted(tracer, name, original)
                for module, binding in _bindings(modules, original):
                    setattr(module, binding, wrapper)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """calls / s / self_s per traced function and calls per counted function,
    each per pass."""
    out = {}
    for layer, names in LAYERS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = tracer.calls[name] / passes
            out[f"{name}.s"] = tracer.inclusive.get(name, 0.0) / passes
            out[f"{name}.self_s"] = tracer.self_time.get(name, 0.0) / passes
        for dotted in COUNTED.get(layer, ()):
            out[f"{layer}.{dotted}.calls"] = tracer.calls[f"{layer}.{dotted}"] / passes
    return out
