"""Pinned output for fixed corpora: trees, codes, counts and enumeration order.

The expression digest covers the `code` line, the oriented, semioriented
and total counts, and the oriented, near and semioriented enumeration
lines of `random_sp` seeds 0-39 (default parameters) plus the diamond and
the theta, all printed by the CLI.  It changes whenever the class order,
a code, a count or the enumeration order moves.

The records digest covers the same expression corpus printed by
`enumerate --format records` in the oriented, near and semioriented
modes.  The records lines are built without `json.dumps`, so each must
also equal its own `json.dumps(..., sort_keys=True)` re-encoding.
A recording stdout checks that each `enumerate` run writes its first
line on its own and at most `_CHUNK` lines at a time, and that the
writes join to the bytes the expression and records digests pin, and
that each instance's first line is written before any enumeration list
is built.

The edge-list digest covers the same outputs plus `parse` for edge-list
files: the underlying graphs of `random_sp` seeds 0-39 with seeded line
shuffles and endpoint swaps, the diamond, paths, and ladders of 5-20
rungs with seeded labels.  `parse` prints the recognized tree node for
node, so the digest also pins the order in which the edge-list reducer
contracts and merges.  Ladders above 7 rungs (10 864 trees and more) are
parsed, coded and counted but not enumerated.

The fold digests cover CLI `enumerate` in the oriented, near,
semioriented and records modes on two inputs whose root blocks all fold
into a tail of several lists (`generate._sums`): a palindromic series of
five self-mirror blocks, and a P of chains of 1 to 4 edges stored against
the class order.  They are asserted at the default fold constants and with
the constants patched so that every block of two or more lists folds.

The oracle digest covers the brute-force oracle on `random_sp` seeds 0-59
with at most 10 vertices plus the diamond and the theta: the masks, in
order, of the spanning trees, the separating near trees and the acyclic
near sets; each orbit partition (representative, members in order, group
order) and Burnside count under the three fixing policies; and the CLI
`verify` lines.  The separating near trees are invariant only under the
groups that keep {s, t}, so they are partitioned under `FixBoth` and
`FixSet` only.
"""

import contextlib
import hashlib
import json
import random
import sys
from functools import partial

import pytest

from sptrees import (
    FixBoth,
    FixNone,
    FixSet,
    RandomSpParams,
    all_near_trees,
    all_spanning_trees,
    automorphisms,
    burnside_count,
    orbit_partition,
    parse_sp,
    random_sp,
    serialize_sp,
    underlying_graph,
)
from sptrees import generate
from sptrees.cli import _CHUNK, run

from conftest import DIAMOND_TEXT, THETA_TEXT, all_acyclic_near_sets

GOLDEN_SHA256 = "836ca2d5c23f3abab744a929cb35eb910187fa77de09d64140fe8ccdcf8e318e"
EDGE_LIST_SHA256 = "563e60c2bb68c89ad4336d5c108083404f248bcb0beeb043cb03098224c8192f"
RECORDS_SHA256 = "8a4ad7c916af3cac079263f581e4b514777ab7d011a9da9611b4a12d83bfe2ac"
ORACLE_SHA256 = "4bc7206365c23dbc82bf4fa967cccb05fb39e051a461fb065fefc8db63cfb434"

FOLD_SHA256 = {
    ("palindrome", "oriented"): "167b8591871a543fb6bd2994c0d1267d33bf8cd8810ddc7e42dfa628b5302201",
    ("palindrome", "near"): "ccfbd0c7ebaeddd47b43bcc56ad9da20673abd9d330133647b41fdd80109110b",
    ("palindrome", "semioriented"): "e4a8c31186016132a98d84cb2b1e2cab3aa1ad1cc273857666adc7ad002da3dc",
    ("palindrome", "records"): "bc88fb891e6b93bd2b30cb10fa1cca5f96a08af888407ac49216c71c99dc62fc",
    ("bundle", "oriented"): "304b0b8562ead3a8714725ab7f6a9e04df2df316c42353da6d82b0d7d50bbdeb",
    ("bundle", "near"): "e26a2d6971fe80820594c14e9da2800f426b325a72692e01bb45171c11e8d509",
    ("bundle", "semioriented"): "c607dcb287e571dbdc75dd4b989b2b12c4d5431e1147a7548e8b49d506178658",
    ("bundle", "records"): "23a9b5e7d8ceb40f58d2652c9be51cc4034a131bf9ce8490429b186b704b19ec",
}
FOLD_MODES = {
    "oriented": ["--mode", "oriented"],
    "near": ["--mode", "oriented", "--near"],
    "semioriented": ["--mode", "semioriented"],
    "records": ["--mode", "oriented", "--format", "records"],
}

COUNTS = (
    ["code"],
    ["count", "--mode", "oriented"],
    ["count", "--mode", "semioriented"],
    ["count", "--mode", "total"],
)
ENUMERATIONS = (
    ["enumerate", "--mode", "oriented"],
    ["enumerate", "--mode", "oriented", "--near"],
    ["enumerate", "--mode", "semioriented"],
)
COMMANDS = COUNTS + ENUMERATIONS
RECORDS = tuple(command + ["--format", "records"] for command in ENUMERATIONS)


def _output(commands, paths, capsys) -> bytes:
    out = []
    for command in commands:
        for path in paths:
            assert run([command[0], str(path), *command[1:]]) == 0
            out.append(capsys.readouterr().out.encode("utf-8"))
    return b"".join(out)


def _corpus_file(tmp_path, extra=()):
    lines = [serialize_sp(random_sp(RandomSpParams(seed=s))) for s in range(40)]
    lines += [DIAMOND_TEXT, THETA_TEXT, *extra]
    path = tmp_path / "corpus.sp"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_corpus_output_digest(tmp_path, capsys):
    output = _output(COMMANDS, [_corpus_file(tmp_path)], capsys)
    assert hashlib.sha256(output).hexdigest() == GOLDEN_SHA256


def test_records_output_digest(tmp_path, capsys):
    output = _output(RECORDS, [_corpus_file(tmp_path)], capsys)
    assert hashlib.sha256(output).hexdigest() == RECORDS_SHA256


class _Recorder:
    """A stdout that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_enumerate_writes_its_first_line_alone_then_capped_chunks(tmp_path, monkeypatch):
    """Each `enumerate` run writes its first line alone and no more than
    `_CHUNK` lines at a time, and its writes join to the pinned bytes."""
    path = _corpus_file(tmp_path)
    output, largest = {}, 0
    for command in COMMANDS + RECORDS:
        recorder = _Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert run([command[0], str(path), *command[1:]]) == 0
        monkeypatch.undo()
        output[tuple(command)] = "".join(recorder.writes).encode("utf-8")
        if command[0] == "enumerate":
            first = recorder.writes[0]
            assert first.count("\n") == 1 and first.endswith("\n")
            largest = max(largest, *(w.count("\n") for w in recorder.writes))
    assert largest == _CHUNK
    pinned = b"".join(output[tuple(c)] for c in COMMANDS)
    assert hashlib.sha256(pinned).hexdigest() == GOLDEN_SHA256
    pinned = b"".join(output[tuple(c)] for c in RECORDS)
    assert hashlib.sha256(pinned).hexdigest() == RECORDS_SHA256


def test_enumerate_writes_its_first_line_before_any_list(tmp_path, monkeypatch):
    """In the four `enumerate` modes, on each instance of the expression
    corpus, the first write to stdout comes before the first call of
    `generate._placed` (wrapped over the module binding): line 0 is one
    `generate._unrank`, and the lists are built when line 1 is pulled."""
    placed, recorder, calls = generate._placed, _Recorder(), []

    def checked(*args):
        assert recorder.writes, "an enumeration list was built before the first line"
        calls.append(args[3:])
        return placed(*args)

    monkeypatch.setattr(generate, "_placed", checked)
    lines = _corpus_file(tmp_path).read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        path = tmp_path / f"instance{i}.sp"
        path.write_text(line + "\n", encoding="utf-8")
        for argv in FOLD_MODES.values():
            recorder.writes.clear()
            with contextlib.redirect_stdout(recorder):
                assert run(["enumerate", str(path), *argv]) == 0
            assert recorder.writes
    assert calls


def test_records_lines_are_canonical_json(tmp_path, capsys):
    # e(s,t) has one near tree, the empty forest: its record has "edges": [].
    lines = _output(RECORDS, [_corpus_file(tmp_path, ["e(s,t)"])], capsys).decode().splitlines()
    assert '{"edges": [], "index": 0, "kind": "near", "mode": "oriented"}' in lines
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def _chain_text(ends) -> str:
    return "S(" + ",".join(f"e({u},{v})" for u, v in zip(ends, ends[1:])) + ")"


def _palindrome_text() -> str:
    """A series of five self-mirror blocks with 3, 4, 5, 4 and 3 spanning
    trees: an edge beside a 2-edge chain, beside a 3-edge chain, and beside
    two 2-edge chains; 720 spanning and 2472 near trees."""
    spine, fresh, blocks = [f"v{i}" for i in range(6)], iter("abcdefghij"), []
    for kind, a, b in zip((3, 4, 5, 4, 3), spine, spine[1:]):
        if kind == 3:
            kids = [_chain_text([a, next(fresh), b]), f"e({a},{b})"]
        elif kind == 4:
            kids = [f"e({a},{b})", _chain_text([a, next(fresh), next(fresh), b])]
        else:
            kids = [_chain_text([a, next(fresh), b]), f"e({a},{b})", _chain_text([a, next(fresh), b])]
        blocks.append("P(" + ",".join(kids) + ")")
    return "S(" + ",".join(blocks) + ")"


def _bundle_text() -> str:
    """A P of an edge and eight 2-edge, three 3-edge and two 4-edge chains,
    stored against the class order: 2600 spanning and 900 near trees."""
    kids = []
    for i, k in enumerate([4, 2, 3, 2, 2, 1, 3, 2, 4, 2, 2, 3, 2, 2]):
        inner = [f"c{i}x{j}" for j in range(k - 1)]
        kids.append(_chain_text(["s", *inner, "t"]) if inner else "e(s,t)")
    return "P(" + ",".join(kids) + ")"


FOLD_INPUTS = {"palindrome": _palindrome_text(), "bundle": _bundle_text()}


def test_the_fold_inputs_fold_every_root_block_into_a_copied_tail():
    """At the default constants every root block of both inputs, spanning
    and near, folds its last two lists or more into one tail."""
    for text in FOLD_INPUTS.values():
        tree = parse_sp(text)
        plan, program = generate.build_plan(tree), generate._plans(tree).program
        placed = partial(generate._placed, {}, None, program)
        for near in (False, True):
            for block in generate._blocks(program, generate._root(tree), plan, near, placed):
                sizes = list(map(len, block))
                assert 0 < generate._split(sizes) < len(sizes) - 1, sizes


@pytest.mark.parametrize("every_block_folds", [False, True])
@pytest.mark.parametrize("name", sorted(FOLD_INPUTS))
def test_fold_output_digests(name, every_block_folds, tmp_path, capsys, monkeypatch):
    """The enumerate output of each mode, pinned at the parent of the fold,
    at the default constants and with every block of two or more lists
    folded (a tail of one entry or more, no size cut)."""
    if every_block_folds:
        monkeypatch.setattr(generate, "_TAIL", 1)
        monkeypatch.setattr(generate, "_FOLD", 0)
    path = tmp_path / f"{name}.sp"
    path.write_text(FOLD_INPUTS[name] + "\n", encoding="utf-8")
    for mode, argv in FOLD_MODES.items():
        assert run(["enumerate", str(path), *argv]) == 0
        output = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(output).hexdigest() == FOLD_SHA256[name, mode], mode


def _edge_list_text(rng, edges, s, t):
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return f"terminals {s} {t}\n" + "\n".join(lines) + "\n"


def _path(labels):
    return [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]


def _edge_list_corpus(rng):
    """(name, edges, s, t, enumerate?) for every edge-list instance."""
    out = []
    for seed in range(40):
        tree = random_sp(RandomSpParams(seed=seed))
        edges = list(underlying_graph(tree).edges)
        out.append((f"random{seed}", edges, tree.source, tree.target, True))
    diamond = [("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("3", "4")]
    out.append(("diamond", diamond, "2", "3", True))
    for k in (1, 2, 3, 7, 40):
        labels = [f"x{i}" for i in rng.sample(range(k + 1), k + 1)]
        out.append((f"path{k}", _path(labels), labels[0], labels[-1], True))
    for rungs in range(5, 21):
        labels = [f"y{i}" for i in rng.sample(range(2 * rungs), 2 * rungs)]
        a, b = labels[:rungs], labels[rungs:]
        edges = list(zip(a, b)) + _path(a) + _path(b)
        out.append((f"ladder{rungs}", edges, a[0], b[0], rungs <= 7))
    return out


def test_edge_list_output_digest(tmp_path, capsys):
    rng = random.Random(20240)
    everything, enumerable = [], []
    for name, edges, s, t, small in _edge_list_corpus(rng):
        path = tmp_path / f"{name}.edges"
        path.write_text(_edge_list_text(rng, edges, s, t), encoding="utf-8")
        everything.append(path)
        if small:
            enumerable.append(path)
    output = _output((["parse"],) + COUNTS, everything, capsys)
    output += _output(ENUMERATIONS, enumerable, capsys)
    assert hashlib.sha256(output).hexdigest() == EDGE_LIST_SHA256


def _oracle_corpus():
    trees = [random_sp(RandomSpParams(seed=s)) for s in range(60)]
    trees = [t for t in trees if underlying_graph(t).n <= 10]
    return trees + [parse_sp(DIAMOND_TEXT), parse_sp(THETA_TEXT)]


def _masks(sets) -> str:
    return ",".join(str(es.mask) for es in sets)


def _oracle_lines(tree):
    g = underlying_graph(tree)
    s, t = tree.source, tree.target
    spanning = all_spanning_trees(g)
    near = all_near_trees(g, s, t)
    acyclic = all_acyclic_near_sets(g)
    yield _masks(spanning)
    yield _masks(near)
    yield _masks(acyclic)
    for policy in (FixNone(), FixBoth(s, t), FixSet(s, t)):
        autos = automorphisms(g, policy)
        lists = [spanning, acyclic] + ([] if policy == FixNone() else [near])
        for sets in lists:
            report = orbit_partition(sets, autos, g)
            yield f"{policy} {report.group_order}"
            for rep, members in report.orbits:
                yield f"{rep.mask}:{_masks(members)}"
            yield str(burnside_count(sets, autos, g))


def test_oracle_output_digest(tmp_path, capsys):
    corpus = _oracle_corpus()
    lines = [line for tree in corpus for line in _oracle_lines(tree)]
    path = tmp_path / "oracle.sp"
    path.write_text("\n".join(map(serialize_sp, corpus)) + "\n", encoding="utf-8")
    assert run(["verify", str(path)]) == 0
    output = "\n".join(lines).encode("utf-8") + capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(output).hexdigest() == ORACLE_SHA256
