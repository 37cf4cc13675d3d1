"""Smoke test of the benchmark on small seeds and a few cheap ops per workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sptrees import OrientedSP, SemiorientedSP, count_oriented, count_semioriented, count_total  # noqa: E402
from sptrees.expr import read_instances  # noqa: E402

# A cheap slice of each workload's pass, including the failing 800-edge path.
SMALL = {
    "count-large": {"nest40.sp", "triangles150.sp", "pchains150.sp", "path100.el",
                    "ladder20.el", "path800.el"},
    "enumerate-stream": {f"random0.sp:{mode}" for mode in workloads.ENUM_MODES},
    "verify-oracle": {"random0.sp", "mirror0.sp"},
}


def counts(text):
    tree = read_instances(text)[0]
    return (
        count_total(OrientedSP(tree)).spanning,
        count_oriented(OrientedSP(tree)).spanning,
        count_semioriented(SemiorientedSP(tree)),
    )


def test_closed_forms_match_the_library_on_small_sizes():
    rng = workloads.random.Random(0)
    for k in (3, 7, 40):
        tri = workloads.triangles(rng, workloads.Labels(rng), k)
        assert counts(workloads.to_text(tri)) == (3 ** k, 3 ** k, (3 ** k + 3 ** (k // 2)) // 2)
        chains = workloads.pchains(rng, workloads.Labels(rng), k)
        assert counts(workloads.to_text(chains)) == (k * 2 ** (k - 1), k, (k + 1) // 2)
        fresh = workloads.Labels(rng)
        a = [fresh() for _ in range(k)]
        b = [fresh() for _ in range(k)]
        ladder = workloads.edge_list_text(rng, workloads.ladder_edges(a, b), a[0], b[0])
        total = workloads.ladder_total(k)
        assert counts(ladder)[:2] == (total, total)
        nest = workloads.nest(rng, workloads.Labels(rng), k)
        total = workloads.total_counts(nest)[0]
        assert counts(workloads.to_text(nest))[:2] == (total, total)
    for _ in range(20):
        node = workloads.random_tree(rng, workloads.Labels(rng), depth=4, width=3, leaf_bias=0.4)
        tree = read_instances(workloads.to_text(node))[0]
        pair = count_oriented(OrientedSP(tree))
        _, spanning, near = workloads.oriented_counts(node)
        assert (pair.spanning, pair.near) == (spanning, near)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


def small_pass(workload, work):
    plan = workloads.build(workload, 3)
    ops = [op for op in plan["ops"] if op["name"] in SMALL[workload]]
    assert len(ops) == len(SMALL[workload])
    for name in {op["file"] for op in ops}:
        (work / name).write_text(plan["files"][name])
    return ops, {
        "src": str(ROOT / "src"),
        "files": sorted({op["file"] for op in ops}),
        "ops": ops,
        "spans_path": str(work / "spans.jsonl"),
        "seconds": 0,
        "min_samples": 0,
    }


def test_small_passes_check_clean_and_trace_keeps_outputs():
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
        try:
            ops, plan = small_pass(workload, work)
            runner = run.Runner(work)
            untraced = runner.child("timed", plan, "untraced")
            traced = runner.child("traced", plan, "traced")
            assert run.check_ops(workload, ops, untraced["ops"]) == []
            assert run.compare("traced", ops, untraced["ops"], traced["ops"]) == []
            failed = [op["name"] for op, r in zip(ops, untraced["ops"]) if r["error"]]
            assert failed == (["path800.el"] if workload == "count-large" else [])
            if workload == "enumerate-stream":
                checked = runner.child("check", plan, "check")
                assert [r.get("check") for r in checked["ops"]] == [None] * len(ops)
                assert run.compare("checked", ops, untraced["ops"], checked["ops"]) == []
            metrics = run.per_layer(workload, ops, untraced, traced)
            assert set(metrics) == set(layers.metric_units())
            assert len((work / "spans.jsonl").read_text().splitlines()) >= len(ops)
        finally:
            shutil.rmtree(work, ignore_errors=True)


def test_wrong_count_fails_the_check():
    op = {"name": "x", "ref": {"total": "9", "oriented": "9", "semi": None}}
    result = {"error": None, "out": "9 8 5 0"}
    assert run.check_ops("count-large", [op], [result])


def test_tail_has_ten_samples_beyond_it():
    value, beyond = run.tail([float(i) for i in range(100)], 90)
    assert (value, beyond) == (89.0, 10)


def test_exits_nonzero_without_the_package():
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "count-large", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
