"""One benchmark process: import sptrees, read the inputs, run passes of ops.

    python3 -I bench/child.py MODE PLAN.json OUT.json

MODE is `setup` (set up and stop), `timed` (passes until the plan's seconds
and sample count are reached), `traced` (the same with layer spans) or
`check` (one pass keeping all output, then the enumerate output checks).
The process is a closed loop with one client: each op starts when the one
before it has finished.  Results go to OUT.json.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from pathlib import Path

clock = time.perf_counter


def calibrate() -> float:
    """Seconds taken by a fixed loop of integer, string and dict work.

    The CPU speed of a shared virtual machine can drift by tens of percent
    within seconds, so each op is preceded by this loop and the parent
    scales the op's times by it (see CAL_REF_S in run.py).
    """
    start = clock()
    x = 0
    table = {}
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFFFFFF
        table[i & 255] = (str(i), x)
    return clock() - start


class Sink:
    """Stdout of one CLI op: counts lines, stamps the first write, hashes bytes."""

    def __init__(self, keep: bool):
        self.first = None
        self.lines = 0
        self.hash = hashlib.blake2b(digest_size=16)
        self.kept = [] if keep else None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = clock()
        self.lines += text.count("\n")
        self.hash.update(text.encode())
        if self.kept is not None:
            self.kept.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_count(lib, op, text):
    """count-large op: parse, three counts, then rank a seeded spanning tree."""
    core, expr, generate, semi = lib["core"], lib["expr"], lib["generate"], lib["semi"]
    start = clock()
    tree = expr.read_instances(text)[0]
    oriented = core.OrientedSP(tree)
    pair = generate.count_oriented(oriented)
    first = clock()
    semi_count = semi.count_semioriented(core.SemiorientedSP(tree))
    total = generate.count_total(oriented)
    graph = core.underlying_graph(tree)
    where = {e: i for i, e in enumerate(graph.edges)}
    chosen = core.EdgeSet.of(where[min(u, v), max(u, v)] for u, v in op["tree"])
    rank = generate.spanning_tree_index(oriented, chosen)
    end = clock()
    out = f"{total.spanning} {pair.spanning} {semi_count} {rank}"
    return start, first, end, None, out


def run_cli(lib, op, keep: bool):
    """CLI op: `cli.run(argv)` with stdout in a Sink; non-zero exit is a failure."""
    sink = Sink(keep or op.get("keep", False))
    errors = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        code = lib["cli"].run(op["argv"])
    end = clock()
    out = None if sink.kept is None else "".join(sink.kept)
    if code != 0:
        raise RuntimeError(f"exit {code}: {errors.getvalue().strip()[:200]}")
    return start, sink.first, end, sink, out


def run_op(lib, op, texts, keep: bool) -> dict:
    """One op; an exception of any kind, RecursionError included, is a failure."""
    start = clock()
    try:
        if "argv" in op:
            start, first, end, sink, out = run_cli(lib, op, keep)
            lines, digest = sink.lines, sink.hash.hexdigest()
        else:
            start, first, end, _, out = run_count(lib, op, texts[op["file"]])
            lines, digest = None, hashlib.blake2b(out.encode(), digest_size=16).hexdigest()
        return {"lat": end - start, "first": first - start if first else None,
                "lines": lines, "digest": digest, "error": None, "out": out}
    except Exception as exc:  # the op's failure is the measurement
        end = clock()
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
        return {"lat": end - start, "first": None, "lines": None,
                "digest": type(exc).__name__, "error": error, "out": None}


def run_pass(lib, ops, texts, results, keep=False, tracer=None) -> None:
    for i, op in enumerate(ops):
        # Each op starts from an empty garbage collector, so a collection
        # owed to earlier ops does not land in its time.
        gc.collect()
        cal = calibrate()
        if tracer is not None:
            tracer.op = i
            tracer.begin("op")
        r = run_op(lib, op, texts, keep)
        if tracer is not None:
            tracer.end()
        slot = results[i]
        if not slot["lat"]:
            slot.update(digest=r["digest"], error=r["error"], lines=r["lines"], out=r["out"])
        elif (r["digest"], r["error"]) != (slot["digest"], slot["error"]):
            slot["unstable"] = True
        slot["lat"].append(r["lat"])
        slot["first"].append(r["first"])
        slot["cal"].append(cal)


# ---------------------------------------------------------------------------
# enumerate-stream output checks (independent of the enumeration code)
# ---------------------------------------------------------------------------


def tree_error(ids, ends, n, near, s, t):
    """None when the edges `ids` (indices into `ends`, pairs of vertex
    numbers) form a spanning tree, or for `near` a two-component forest
    separating vertex s from vertex t."""
    if len(ids) != (n - 2 if near else n - 1):
        return f"{len(ids)} edges"
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in ids:
        ru, rv = find(ends[i][0]), find(ends[i][1])
        if ru == rv:
            return "cycle"
        parent[ru] = rv
    if near and find(s) == find(t):
        return "terminals joined"
    return None


def check_enumerate(lib, op, out: str, text: str):
    """Line count equals the recurrence count, lines are distinct, and each
    line is a tree of the right kind.  Returns an error string or None."""
    core, expr, generate, semi = lib["core"], lib["expr"], lib["generate"], lib["semi"]
    tree = expr.read_instances(text)[0]
    mode = op["mode"]
    if mode == "semioriented":
        expected = semi.count_semioriented(core.SemiorientedSP(tree))
    else:
        pair = generate.count_oriented(core.OrientedSP(tree))
        expected = pair.near if mode == "near" else pair.spanning
    lines = out.splitlines()
    if len(lines) != expected:
        return f"{len(lines)} lines, recurrence count {expected}"
    number = {}
    for u, v in op["edges"]:
        number.setdefault(u, len(number))
        number.setdefault(v, len(number))
    ends = [(number[u], number[v]) for u, v in op["edges"]]
    token_id = {}
    for i, (u, v) in enumerate(op["edges"]):
        token_id[f"{u}-{v}"] = token_id[f"{v}-{u}"] = i
    s, t = (number[x] for x in op["terminals"])
    seen = set()
    for index, line in enumerate(lines):
        if mode == "records":
            record = json.loads(line)
            if record["index"] != index or record["kind"] != "spanning":
                return f"line {index}: bad record {line[:80]}"
            tokens = record["edges"]
        else:
            tokens = line.split(",")
        try:
            ids = [token_id[token] for token in tokens]
        except KeyError as exc:
            return f"line {index}: {exc.args[0]} is not an edge"
        key = frozenset(ids)
        if len(key) != len(ids) or key in seen:
            return f"line {index} repeats an edge or an earlier tree"
        seen.add(key)
        error = tree_error(ids, ends, len(number), mode == "near", s, t)
        if error:
            return f"line {index}: {error}"
    return None


def main() -> None:
    mode, plan_path, out_path = sys.argv[1:4]
    plan = json.loads(Path(plan_path).read_text())
    start = clock()
    sys.path.insert(0, plan["src"])
    import sptrees
    from sptrees import cli, core, expr, generate, semi

    if not Path(sptrees.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        raise SystemExit(f"sptrees imported from {sptrees.__file__}, not {plan['src']}")
    texts = {name: Path(name).read_text() for name in plan["files"]}
    setup_s = clock() - start
    result = {"setup_s": setup_s, "setup_cal": calibrate()}
    if mode != "setup":
        lib = {"cli": cli, "core": core, "expr": expr, "generate": generate, "semi": semi}
        ops = plan["ops"]
        results = [{"lat": [], "first": [], "cal": []} for _ in ops]
        tracer = None
        if mode == "traced":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from layers import Tracer, install, layer_metrics

            tracer = Tracer(clock)
            install(tracer)
        pass_s = []
        loop_start = clock()
        while True:
            pass_start = clock()
            run_pass(lib, ops, texts, results, keep=mode == "check", tracer=tracer)
            pass_s.append(clock() - pass_start)
            elapsed = clock() - loop_start
            if mode == "check" or (
                elapsed >= plan["seconds"] and len(pass_s) * len(ops) >= plan["min_samples"]
            ):
                break
        result.update(loop_s=clock() - loop_start, pass_s=pass_s, ops=results)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, len(pass_s))
            result["tally"] = tracer.tally
            with open(plan["spans_path"], "w") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
        if mode == "check":
            for op, r in zip(ops, results):
                if op.get("mode") and r["error"] is None:
                    r["check"] = check_enumerate(lib, op, r["out"], texts[op["file"]])
                r["out"] = None
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
