"""Benchmark for sptrees: seeded workloads, end-to-end metrics, layer traces.

    python3 bench/run.py --workload count-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  The inputs of the workload are generated from
the seed into .bench_build/, then each workload runs in fresh child processes
(see child.py): a few set-up probes, one timed child that repeats passes over
the fixed batch of ops until --seconds have gone by and the tail percentile has
ten samples beyond it, and for enumerate-stream a check child that keeps all
output.  With --trace 1 it instead runs an untraced and a traced child of
three passes each and reports the per-layer metrics per pass.

Every output is checked against references that do not come from the timed
code.  The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the exit code is 1 when a check fails and 2 when the
benchmark cannot run at all (then nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170
# Fixed tail percentile.  A timed run keeps going until at least ten latency
# samples lie beyond it, so the percentile never depends on how fast the
# program is.
TAIL_PCT = 90
# Times are reported for a nominal host on which child.calibrate() takes this
# long.  On a 2-vCPU virtual machine a fixed op's wall time swung by up to
# 1.7x within a minute while its ratio to the calibration loop moved by under
# a tenth; the raw wall-clock figures are printed beside the calibrated ones.
CAL_REF_S = 0.006
# Passes of the untraced and of the traced child in a --trace 1 run.
TRACE_PASSES = 3

# name -> (unit, better); the bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ok_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "trees_per_s": ("1/s", "higher"),
    "first_tree_ms": ("ms", "lower"),
}


class BenchError(Exception):
    """The benchmark itself could not run."""


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, mode: str, plan: dict, tag: str) -> dict:
        plan_path = self.work / f"plan-{tag}.json"
        out_path = self.work / f"out-{tag}.json"
        plan_path.write_text(json.dumps(plan))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "child.py"), mode, str(plan_path), str(out_path)],
                cwd=self.work, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        return json.loads(out_path.read_text())


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_ops(workload: str, ops: list[dict], results: list[dict]) -> list[str]:
    """Check timed outputs against the generator's references."""
    problems = []
    for op, r in zip(ops, results):
        if r.get("unstable"):
            problems.append(f"{op['name']}: output differs between passes")
        if workload == "count-large" and r["error"] is None:
            total, oriented, semi, rank = (int(x) for x in r["out"].split())
            ref = op["ref"]
            if total != int(ref["total"]) or oriented != int(ref["oriented"]):
                problems.append(f"{op['name']}: total/oriented {total}/{oriented} differ from closed form")
            if ref["semi"] is not None and semi != int(ref["semi"]):
                problems.append(f"{op['name']}: semioriented {semi} differs from closed form")
            if not 0 <= rank < oriented:
                problems.append(f"{op['name']}: spanning_tree_index {rank} outside [0, {oriented})")
        if workload == "verify-oracle":
            if r["error"] is not None:
                problems.append(f"{op['name']}: {r['error']}")
                continue
            line = r["out"].strip()
            total = re.search(r"\btotal=(\d+)", line)
            if not line.startswith("PASS") or not total or int(total[1]) != op["ref"]["total"]:
                problems.append(f"{op['name']}: expected PASS with total={op['ref']['total']}, got {line[:120]}")
    return problems


def compare(label: str, ops, base: list[dict], other: list[dict]) -> list[str]:
    return [
        f"{op['name']}: {label} output or failure differs"
        for op, a, b in zip(ops, base, other)
        if (a["digest"], a["error"] is None) != (b["digest"], b["error"] is None)
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def op_trees(workload: str, op: dict, r: dict) -> int:
    """Trees one op handles: lines emitted (enumerate), spanning and near
    trees the oracle builds (verify), the one tree ranked (count)."""
    if r["error"] is not None:
        return 0
    if workload == "enumerate-stream":
        return r["lines"]
    if workload == "verify-oracle":
        return op["ref"]["total"] + op["ref"]["near"]
    return 1


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = -(-pct * len(ordered) // 100)
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, plan, timed, setups, rss_mb, calibrated=True) -> tuple[dict, dict]:
    """End-to-end metrics of a timed child.

    With `calibrated`, an op's times are multiplied by CAL_REF_S over the
    median of the five calibrations run nearest to it, and each set-up time
    by CAL_REF_S over its own calibration.  Throughputs are medians over
    passes, which are identical batches of work; op_p50_ms and first_tree_ms
    are medians over the ops of a pass of each op's median over passes.
    """
    results = timed["ops"]
    passes = range(len(timed["pass_s"]))
    order = [(p, i) for p in passes for i in range(len(results))]
    cals = [results[i]["cal"][p] for p, i in order]
    scale = {
        (p, i): CAL_REF_S / statistics.median(cals[max(0, k - 2):k + 3]) if calibrated else 1.0
        for k, (p, i) in enumerate(order)
    }
    latency_by_op = [[r["lat"][p] * scale[p, i] for p in passes] for i, r in enumerate(results)]
    first_by_op = [
        [r["first"][p] * scale[p, i] for p in passes if r["first"][p] is not None]
        for i, r in enumerate(results)
    ]
    latencies = [x for by_op in latency_by_op for x in by_op]
    pass_op_s = [sum(r["lat"][p] * scale[p, i] for i, r in enumerate(results)) for p in passes]
    pass_trees = sum(op_trees(workload, op, r) for op, r in zip(plan["ops"], results))
    attempted = len(latencies)
    failed = sum(len(r["lat"]) for r in results if r["error"] is not None)
    tail_s, beyond = tail(latencies, TAIL_PCT)
    metrics = {
        "setup_s": statistics.median(
            setup_s * (CAL_REF_S / cal if calibrated else 1.0) for setup_s, cal in setups
        ),
        "ops_per_s": statistics.median(len(results) / s for s in pass_op_s),
        "op_p50_ms": statistics.median(map(statistics.median, latency_by_op)) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_share": 1 - failed / attempted,
        "peak_rss_mb": rss_mb,
        "trees_per_s": statistics.median(pass_trees / s for s in pass_op_s),
        "first_tree_ms": statistics.median(
            statistics.median(by_op) for by_op in first_by_op if by_op
        ) * 1e3,
    }
    info = {
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "tail": f"p{TAIL_PCT} of {attempted} samples, {beyond} beyond it",
        "speed": statistics.median(scale.values()),
    }
    return metrics, info


def keep_ratio(workload, ops, results) -> float:
    """Semioriented trees kept over oriented candidates, summed over instances."""
    kept, candidates = 0, 0
    if workload == "enumerate-stream":
        lines = {(op["file"], op["mode"]): r["lines"] for op, r in zip(ops, results)
                 if r["error"] is None}
        for (name, mode), count in lines.items():
            if mode == "semioriented" and (name, "oriented") in lines:
                kept += count
                candidates += lines[name, "oriented"]
    else:
        for op, r in zip(ops, results):
            if r["error"] is not None:
                continue
            if workload == "count-large":
                _, oriented, semi, _ = (int(x) for x in r["out"].split())
            else:
                fields = dict(re.findall(r"(\w+)=(\d+)", r["out"]))
                oriented, semi = int(fields["oriented"]), int(fields["semi"])
            kept += semi
            candidates += oriented
    return float(Fraction(kept, candidates)) if candidates else 0.0


def per_layer(workload, ops, untraced, traced) -> dict:
    metrics = dict(traced["layers"])
    tally = traced["tally"]
    metrics["semi.keep_ratio"] = keep_ratio(workload, ops, traced["ops"])
    scanned = tally.get("near.scanned", 0)
    metrics["oracle.near_yield"] = tally.get("near.found", 0) / scanned if scanned else 0.0
    for mode in layers.ENUMERATORS.values():
        n_trees = tally.get(f"{mode}.n_trees", 0)
        metrics[f"generate.ns_per_n_tree.{mode}"] = (
            tally[f"{mode}.s"] / n_trees * 1e9 if n_trees else 0.0
        )
    metrics["trace.overhead_s"] = (
        statistics.median(traced["pass_s"]) - statistics.median(untraced["pass_s"])
    )
    return metrics


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def print_end_to_end(metrics, raw, info) -> None:
    print(f"  {'metric':<16} {'calibrated':>14}      {'raw wall clock':>14}"
          f"   (host speed factor {info['speed']:.3f})")
    for name, (unit, _) in END_TO_END.items():
        note = f"   {info['tail']}" if name == "op_tail_ms" else ""
        print(f"  {name:<16} {metrics[name]:>14.6g} {unit:<5} {raw[name]:>14.6g}{note}")
    print(f"  {'fail_share':<16} {info['fail_share']:>14.6g} share"
          f"   {info['failed']} of {info['attempted']} ops failed")


def print_layers(metrics) -> None:
    busy = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    print(f"  {'function':<36} {'calls':>10} {'s':>10} {'self_s':>10} {'self %':>7}")
    for layer, names in layers.LAYERS.items():
        for fname in names:
            key = f"{layer}.{fname}"
            self_s = metrics[f"{key}.self_s"]
            share = 100 * self_s / busy if busy else 0.0
            print(f"  {key:<36} {metrics[key + '.calls']:>10.0f} {metrics[key + '.s']:>10.4f}"
                  f" {self_s:>10.4f} {share:>6.1f}%")
        for dotted in layers.COUNTED.get(layer, ()):
            key = f"{layer}.{dotted}.calls"
            print(f"  {layer + '.' + dotted:<36} {metrics[key]:>10.0f}")
    for name, unit in layers.DERIVED:
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run(args, work: Path) -> tuple[bool, int, int, dict]:
    plan = workloads.build(args.workload, args.seed)
    for name, text in plan["files"].items():
        (work / name).write_text(text)
    ops = plan["ops"]
    base = {
        "src": str(ROOT / "src"),
        "files": sorted(plan["files"]),
        "ops": ops,
        "spans_path": str(ROOT / ".bench_build" / f"spans-{args.workload}.jsonl"),
    }
    runner = Runner(work)
    problems = []
    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} ops per pass  "
          f"trace {args.trace}")

    if args.trace:
        passes = dict(base, seconds=0, min_samples=TRACE_PASSES * len(ops))
        reference = runner.child("timed", passes, "untraced")
        measured = runner.child("traced", passes, "traced")
        problems += compare("traced", ops, reference["ops"], measured["ops"])
        metrics = per_layer(args.workload, ops, reference, measured)
        print_layers(metrics)
    else:
        min_samples = math.ceil(10 * 100 / (100 - TAIL_PCT))
        timed_plan = dict(base, seconds=args.seconds, min_samples=min_samples)
        probes = [runner.child("setup", timed_plan, f"setup{i}") for i in range(SETUP_PROBES)]
        reference = measured = runner.child("timed", timed_plan, "timed")
        # Before the check child, so the peak is the timed child's.
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        setups = [(r["setup_s"], r["setup_cal"]) for r in probes + [measured]]
        metrics, info = end_to_end(args.workload, plan, measured, setups, rss_mb)
        raw, _ = end_to_end(args.workload, plan, measured, setups, rss_mb, calibrated=False)
        print_end_to_end(metrics, raw, info)

    problems += check_ops(args.workload, ops, reference["ops"])
    if args.workload == "enumerate-stream":
        checked = runner.child("check", dict(base, seconds=0, min_samples=0), "check")
        problems += compare("checked", ops, reference["ops"], checked["ops"])
        problems += [f"{op['name']}: {r['check']}" for op, r in zip(ops, checked["ops"]) if r.get("check")]
    results = measured["ops"]
    attempted = sum(len(r["lat"]) for r in results)
    failed = sum(len(r["lat"]) for r in results if r["error"] is not None)
    for op, r in zip(ops, results):
        if r["error"] is not None:
            print(f"  failed op {op['name']}: {r['error'][:120]}")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    return not problems, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and waits for
    # the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        # One process per workload, so each reads only its own children's peak RSS.
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name] + rest).returncode
            for name in workloads.WORKLOADS
        )

    if not (ROOT / "src" / "sptrees" / "__init__.py").is_file():
        print(f"error: no sptrees package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=build_dir))
    try:
        correct, attempted, failed, metrics = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = layers.metric_units() if args.trace else {k: u for k, (u, _) in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
