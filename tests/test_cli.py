"""End-to-end CLI behavior: subcommands, formats, exit codes, stability."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sptrees import (
    FixSet,
    ImageNotFound,
    OrientedSP,
    SemiorientedSP,
    automorphisms,
    iter_oriented_near,
    iter_oriented_spanning,
    iter_semioriented_spanning,
    parse_sp,
    underlying_graph,
)
from sptrees import cli, expr, generate, oracle
from sptrees.core import EdgeSet, Leaf, Series
from sptrees.cli import _build_parser, _lines, run
from sptrees.oracle import DEFAULT_LIMIT

from conftest import (
    DIAMOND_TEXT,
    THETA_TEXT,
    deep_nest_codes,
    deep_nest_text,
    mirror_symmetric,
    reference_lines,
    twin_nest_text,
)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.sp"
    path.write_text(f"# the diamond\n{DIAMOND_TEXT}\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.sp"
    path.write_text(THETA_TEXT + "\n", encoding="utf-8")
    return str(path)


def test_parse_echoes_normalized(diamond_file, capsys):
    assert run(["parse", diamond_file]) == 0
    assert capsys.readouterr().out == DIAMOND_TEXT + "\n"


def test_parse_normalizes_nesting(tmp_path, capsys):
    path = tmp_path / "nested.sp"
    path.write_text("S(S(e(a,b),e(b,c)),e(c,d))\n", encoding="utf-8")
    assert run(["parse", str(path)]) == 0
    assert capsys.readouterr().out == "S(e(a,b),e(b,c),e(c,d))\n"


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--mode", "semioriented"], "3"),
        (["--mode", "total"], "8"),
        (["--mode", "oriented"], "5"),
        (["--mode", "oriented", "--near"], "3"),
        (["--mode", "total", "--near"], "4"),
    ],
)
def test_count_diamond(diamond_file, capsys, args, expected):
    assert run(["count", diamond_file, *args]) == 0
    assert capsys.readouterr().out.strip() == expected


def test_count_theta(theta_file, capsys):
    assert run(["count", theta_file, "--mode", "oriented"]) == 0
    assert run(["count", theta_file, "--mode", "semioriented"]) == 0
    assert run(["count", theta_file, "--mode", "total"]) == 0
    assert capsys.readouterr().out.split() == ["9", "6", "15"]


def test_enumerate_text_is_byte_stable(diamond_file, capsys):
    assert run(["enumerate", diamond_file, "--mode", "oriented"]) == 0
    first = capsys.readouterr().out
    assert run(["enumerate", diamond_file, "--mode", "oriented"]) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert len(lines) == 5
    for line in lines:
        tokens = line.split(",")
        assert tokens == sorted(tokens)
        assert all("-" in tok for tok in tokens)


def test_enumerate_golden_diamond(diamond_file, capsys):
    assert run(["enumerate", diamond_file, "--mode", "oriented"]) == 0
    assert capsys.readouterr().out == (
        "1-3,2-3,3-4\n"
        "1-3,2-3,2-4\n"
        "1-2,2-3,2-4\n"
        "1-2,1-3,3-4\n"
        "1-2,1-3,2-4\n"
    )


def test_enumerate_count_agreement(theta_file, capsys):
    for mode, near in (
        ("oriented", False),
        ("oriented", True),
        ("semioriented", False),
    ):
        args = ["enumerate", theta_file, "--mode", mode] + (["--near"] if near else [])
        assert run(args) == 0
        enum_lines = capsys.readouterr().out.splitlines()
        count_args = ["count", theta_file, "--mode", mode] + (
            ["--near"] if near else []
        )
        assert run(count_args) == 0
        assert len(enum_lines) == int(capsys.readouterr().out.strip())


def test_enumerate_records(diamond_file, capsys):
    assert run(["enumerate", diamond_file, "--mode", "semioriented", "--format", "records"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["index"] for r in records] == [0, 1, 2]
    assert all(r["mode"] == "semioriented" and r["kind"] == "spanning" for r in records)
    assert all(r["edges"] == sorted(r["edges"]) for r in records)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.data())
@example(7, None)
@example(8, None)
@example(9, None)
@example(16, None)
@example(17, None)
def test_byte_table_lines_match_the_selector_reference(m, data):
    """The byte tables give the same text and records lines as one
    selector byte per edge, at every width around a byte boundary."""
    if data is None:  # an explicit width: a fixed mix of masks
        masks = [0, 1, 2**m - 1, 0x5A5A5A5A5A & (2**m - 1), 1 << (m - 1)]
    else:
        masks = data.draw(st.lists(st.integers(0, 2**m - 1), max_size=20))
    tokens = sorted(f"{i}-{i + 1}" for i in range(m))
    for toks, sep in ((tokens, ","), (list(map(json.dumps, tokens)), ", ")):
        assert list(_lines(toks, masks, sep)) == list(reference_lines(toks, masks, sep))


def test_single_edge_near_prints_one_empty_line(tmp_path, capsys):
    path = tmp_path / "edge.sp"
    path.write_text("e(s,t)\n", encoding="utf-8")
    assert run(["enumerate", str(path), "--mode", "oriented", "--near"]) == 0
    assert capsys.readouterr().out == "\n"
    assert run(["enumerate", str(path), "--mode", "oriented", "--near", "--format", "records"]) == 0
    assert capsys.readouterr().out == '{"edges": [], "index": 0, "kind": "near", "mode": "oriented"}\n'


def test_byte_tables_hold_only_the_bytes_that_occur(tmp_path, capsys, monkeypatch):
    """A path's one tree sets every edge: each of its k tables builds one
    entry, not 256, and none is built before a lookup."""
    m, k = 2000, 250
    path = tmp_path / "path.sp"
    path.write_text("S(" + ",".join(f"e(v{i},v{i + 1})" for i in range(m)) + ")\n", encoding="utf-8")
    made = []

    class Recording(cli._ByteTable):
        __slots__ = ()

        def __init__(self, tokens):
            super().__init__(tokens)
            assert not self
            made.append(self)

    monkeypatch.setattr(cli, "_ByteTable", Recording)
    assert run(["enumerate", str(path), "--mode", "oriented"]) == 0
    assert len(capsys.readouterr().out.split(",")) == m
    assert len(made) == k
    assert sum(map(len, made)) <= k


def test_one_parser_carries_no_flag_from_call_to_call(diamond_file, capsys):
    """The parser is built once per process; each call still gives the
    stdout and exit code of a fresh process."""
    calls = [
        ["count", diamond_file, "--mode", "oriented", "--bogus"],
        ["count", diamond_file, "--mode", "oriented", "--near"],
        ["count", diamond_file, "--mode", "oriented"],
        ["enumerate", diamond_file, "--mode", "oriented"],
    ]
    fresh = list(map(_fresh_run, calls))
    warm = []
    for argv in calls:
        code = run(argv)
        warm.append((code, capsys.readouterr().out))
    assert warm == fresh
    assert [code for code, _ in warm] == [1, 0, 0, 0]
    assert warm[1][1] != warm[2][1]
    assert _build_parser() is _build_parser()


def _fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _fresh_run(argv, module="sptrees"):
    """(exit code, stdout) of `python -m module` in a new interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        timeout=60,
    )
    return result.returncode, result.stdout


# Edge tokens that sort unlike the edges' input order: edge 8, "9-x7",
# sorts before edge 7, "a1-c", which sorts before edge 4, "b-c".
UNSORTED_TEXT = (
    "P(S(e(9,10),e(10,a1)),e(9,a1),S(e(9,b),P(e(b,c),S(e(b,d),e(d,c))),e(c,a1)),"
    "S(e(9,x7),e(x7,a1)))"
)


@pytest.mark.parametrize(
    "args, records",
    [
        (["--mode", "oriented"], False),
        (["--mode", "oriented", "--near"], False),
        (["--mode", "semioriented"], False),
        (["--mode", "oriented"], True),
    ],
)
def test_enumerate_sorts_tokens_whose_labels_sort_unlike_leaf_order(
    tmp_path, capsys, args, records
):
    path = tmp_path / "unsorted.sp"
    path.write_text(UNSORTED_TEXT + "\n", encoding="utf-8")
    tree = parse_sp(UNSORTED_TEXT)
    if "semioriented" in args:
        trees = iter_semioriented_spanning(SemiorientedSP(tree))
    else:
        trees = (iter_oriented_near if "--near" in args else iter_oriented_spanning)(OrientedSP(tree))
    names = [f"{u}-{v}" for u, v in underlying_graph(tree).edges]
    expected = [sorted(names[i] for i in es.indices()) for es in trees]
    assert run(["enumerate", str(path), *args] + (["--format", "records"] if records else [])) == 0
    lines = capsys.readouterr().out.splitlines()
    if records:
        lines = [",".join(json.loads(line)["edges"]) for line in lines]
    tokens = [line.split(",") for line in lines]
    assert tokens == expected
    assert all(t == sorted(set(t)) for t in tokens)
    assert run(["count", str(path), *args]) == 0
    assert len(lines) == int(capsys.readouterr().out)


def test_semioriented_near_is_usage_error(diamond_file, tmp_path, capsys):
    # The flags are checked before the file is read, so a missing file
    # does not turn the usage error into an input error.
    for path in (diamond_file, str(tmp_path / "missing.sp")):
        assert run(["count", path, "--mode", "semioriented", "--near"]) == 1
        assert run(["enumerate", path, "--mode", "semioriented", "--near"]) == 1
        assert capsys.readouterr().err.count("usage error: --near") == 2


def test_usage_error_on_bad_flags(diamond_file):
    assert run(["count", diamond_file, "--mode", "bogus"]) == 1
    assert run(["bogus-command"]) == 1
    assert run(["count"]) == 1


@pytest.mark.parametrize(
    "name, content, reason",
    [
        pytest.param("bad.sp", b"S(e(a,b),e(b c))\n", "syntax error at position", id="syntax"),
        pytest.param("bad.sp", b"S(e(a,b),e(c,d))\n", "semantic error: root: series chain mismatch",
                     id="semantic"),
        pytest.param("k4.el", b"terminals 1 2\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
                     "not series-parallel", id="not-series-parallel"),
        pytest.param("apart.el", b"terminals s t\ns t\na b\n", "not connected", id="disconnected"),
        pytest.param("head.el", b"terminals s\ns t\n", "terminals line must be", id="header"),
        pytest.param("missing.sp", None, "No such file", id="missing"),
        pytest.param("latin1.sp", "e(s,\xe9)\n".encode("latin-1"), "utf-8", id="non-utf-8"),
    ],
)
def test_each_input_error_exits_2(tmp_path, capsys, name, content, reason):
    """Every input error is a ValueError or an OSError: one line on stderr
    after `error: `, exit 2, whichever subclass the reader raises."""
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert run(["parse", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_diamond_and_theta(diamond_file, theta_file, capsys):
    assert run(["verify", diamond_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS (")
    assert "total=8" in out and "oriented=5" in out and "semi=3" in out
    assert run(["verify", theta_file]) == 0
    out = capsys.readouterr().out
    assert "total=15" in out and "oriented=9" in out and "semi=6" in out


def test_verify_refuses_large_instances(tmp_path, capsys):
    path = tmp_path / "big.sp"
    chain = "S(" + ",".join(f"e(v{i},v{i + 1})" for i in range(20)) + ")"
    path.write_text(chain + "\n", encoding="utf-8")
    assert run(["verify", str(path)]) == 2
    assert "refusing" in capsys.readouterr().err
    assert run(["verify", str(path), "--limit", "30"]) == 0


def test_verify_above_default_limit_on_exchangeable_terminals(tmp_path, capsys):
    # 13 vertices, and a mirror symmetry that exchanges s and t
    path = tmp_path / "mirror13.sp"
    path.write_text(
        "S(P(S(e(s,a),e(a,b)),S(e(s,c),e(c,b)),e(s,b)),"
        "P(S(e(b,d),e(d,m)),S(e(b,f),e(f,m))),"
        "P(S(e(m,g),e(g,h)),S(e(m,i),e(i,h))),"
        "P(S(e(h,j),e(j,t)),S(e(h,k),e(k,t)),e(h,t)))\n",
        encoding="utf-8",
    )
    assert run(["verify", str(path), "--limit", "16"]) == 0
    assert capsys.readouterr().out == (
        "PASS (total=1024 oriented=100 near=420 semi=55 aut_or=16 aut_semi=32)\n"
    )


def _one_too_few(masks, group, g):
    return masks[:-1]


def _not_a_tree(masks, group, g):
    return [(1 << g.m) - 1] + masks[1:]


def _two_of_one_orbit(masks, group, g):
    """`masks` with one member replaced by the image of another under the group."""
    images = (
        (i, sum(1 << g.index_of(*map(sigma.get, g.edges[k])) for k in range(g.m) if mask >> k & 1))
        for i, mask in enumerate(masks)
        for sigma in group
    )
    i, image = next((i, image) for i, image in images if image != masks[i])
    j = 1 if i == 0 else 0
    return [image if k == j else mask for k, mask in enumerate(masks)]


_DIAMOND_SUMMARY = {"oriented": 5, "near": 3, "semi": 3}


@pytest.mark.parametrize(
    "fault, failure",
    [
        (_one_too_few, "fast={n} orbits={n1} count={n1}"),
        (_not_a_tree, "emitted set is not a valid oracle tree"),
        (_two_of_one_orbit, "two emitted trees share an orbit"),
    ],
    ids=["one-too-few", "not-a-tree", "two-of-one-orbit"],
)
@pytest.mark.parametrize(
    "label, key",
    [
        ("oriented spanning", "oriented"),
        ("oriented near", "near"),
        ("semioriented spanning", "semi"),
    ],
)
def test_verify_reports_a_faulty_fast_list(
    diamond_file, monkeypatch, capsys, fault, failure, label, key
):
    """Each fault goes into one of the three fast mask lists, which
    `verify_instance` reads from `cli._fast_masks`."""
    tree = parse_sp(DIAMOND_TEXT)
    g = underlying_graph(tree)
    aut_semi = automorphisms(g, FixSet(tree.source, tree.target))
    aut_or = [sigma for sigma in aut_semi if sigma[tree.source] == tree.source]
    which = ("oriented", "near", "semi").index(key)
    real_fast_masks = cli._fast_masks

    def fast_masks(sp):
        lists = list(real_fast_masks(sp))
        lists[which] = fault(lists[which], aut_semi if key == "semi" else aut_or, g)
        return tuple(lists)

    monkeypatch.setattr(cli, "_fast_masks", fast_masks)
    sizes = dict(_DIAMOND_SUMMARY)
    if fault is _one_too_few:
        sizes[key] -= 1
    summary = (
        f"total=8 oriented={sizes['oriented']} near={sizes['near']} "
        f"semi={sizes['semi']} aut_or=2 aut_semi=4"
    )
    reason = failure.format(n=sizes[key], n1=sizes[key] + 1)
    assert run(["verify", diamond_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"FAIL ({summary}; {label}: {reason})\n"
    assert captured.err == ""


def test_verify_reports_a_non_group_as_a_failure(diamond_file, monkeypatch, capsys):
    # {e, h, v} is not closed (hv is missing): 8 + 2 + 0 fixed spanning
    # trees, not divisible by 3.  This is an internal fault, not bad input.
    identity = {"1": "1", "2": "2", "3": "3", "4": "4"}
    h = {"1": "4", "2": "2", "3": "3", "4": "1"}
    v = {"1": "1", "2": "3", "3": "2", "4": "4"}
    monkeypatch.setattr(cli, "automorphisms", lambda g, policy, limit: [identity, h, v])
    assert run(["verify", diamond_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == (
        "FAIL (total=8 oriented=5 near=3 semi=3 aut_or=2 aut_semi=3; "
        "semioriented spanning: fast=3 orbits=4 count=3; "
        "Burnside count disagrees with the orbit partition; "
        "mirror pairing found but |Aut_semi|=3, |Aut_or|=2)\n"
    )
    assert "error:" not in captured.err


def test_random_emits_deterministic_expression(capsys):
    assert run(["random", "--seed", "5", "--depth", "2", "--children", "3"]) == 0
    first = capsys.readouterr().out
    assert run(["random", "--seed", "5", "--depth", "2", "--children", "3"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith(("S(", "P(", "e("))


def test_random_round_trips_through_parse(tmp_path, capsys):
    assert run(["random", "--seed", "11"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "random.sp"
    path.write_text(text, encoding="utf-8")
    assert run(["parse", str(path)]) == 0
    assert capsys.readouterr().out == text


def test_code_subcommand(diamond_file, capsys):
    assert run(["code", diamond_file]) == 0
    out = capsys.readouterr().out.strip()
    code, reversal = out.split()
    assert code == reversal == "P(S(EE)S(EE)E)"


def test_code_subcommand_on_a_deep_nest(tmp_path, capsys):
    path = tmp_path / "nest.sp"
    path.write_text(deep_nest_text(2000) + "\n", encoding="utf-8")
    assert run(["code", str(path)]) == 0
    assert capsys.readouterr().out == " ".join(deep_nest_codes(2000)) + "\n"


def test_count_of_twin_deep_nests(tmp_path, capsys):
    """P(A, A'), A' a relabelled copy of the 2000-deep nest A, counts in every
    mode: each node's codes are read children first, also in the copy, whose
    shapes all have plans already.  No reversal maps the graph onto itself,
    and swapping the copies is its one nontrivial automorphism."""
    path = tmp_path / "twins.sp"
    path.write_text(twin_nest_text(2000) + "\n", encoding="utf-8")
    counts = {}
    for mode in ("oriented", "semioriented", "total"):
        assert run(["count", str(path), "--mode", mode]) == 0
        counts[mode] = int(capsys.readouterr().out)
    assert counts["semioriented"] == counts["oriented"]
    assert counts["total"] == 2 * counts["oriented"]


def _patch_bindings(monkeypatch, obj, replacement) -> None:
    """Put `replacement` over every sptrees module's binding of `obj`."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sptrees":
            for attr, value in list(vars(module).items()):
                if value is obj:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize(
    "text, group_orders",
    [
        (DIAMOND_TEXT, (4, 2)),
        (expr.serialize_sp(mirror_symmetric(2)), (8, 4)),
        (expr.serialize_sp(mirror_symmetric(5)), (2, 1)),
    ],
    ids=["diamond", "mirror2", "mirror5"],
)
def test_verify_builds_each_list_once_and_maps_nothing_through_the_identity(
    text, group_orders, monkeypatch
):
    """`verify_instance` builds the tables of each element of Aut_semi but
    the identity once, maps the spanning masks through them and, for the
    members of Aut_or, the near masks too, builds the fast lists in one
    `_streams` call, and wraps no mask in an `EdgeSet`."""
    tree = parse_sp(text)
    calls = {"tables": 0, "images": 0, "streams": 0, "edge sets": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    _patch_bindings(monkeypatch, oracle._tables, counted("tables", oracle._tables))
    _patch_bindings(monkeypatch, oracle._images, counted("images", oracle._images))
    _patch_bindings(monkeypatch, generate._streams, counted("streams", generate._streams))
    monkeypatch.setattr(EdgeSet, "__new__", counted("edge sets", EdgeSet.__new__))
    ok, summary = cli.verify_instance(tree)
    aut_semi, aut_or = group_orders
    assert ok
    assert summary.endswith(f"aut_or={aut_or} aut_semi={aut_semi}")
    assert calls == {
        "tables": aut_semi - 1,
        "images": aut_semi - 1 + aut_or - 1,
        "streams": 1,
        "edge sets": 0,
    }


def test_verify_limit_defaults_to_the_oracle_limit():
    args = _build_parser().parse_args(["verify", "instances.sp"])
    assert args.limit == DEFAULT_LIMIT
    assert inspect.signature(cli.verify_instance).parameters["limit"].default == DEFAULT_LIMIT


def test_edge_list_input(tmp_path, capsys):
    path = tmp_path / "diamond.edges"
    path.write_text(
        "terminals 2 3\n1 2\n1 3\n2 3\n2 4\n3 4\n", encoding="utf-8"
    )
    assert run(["count", str(path), "--mode", "total"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_long_path_edge_lists_are_accepted(tmp_path, capsys):
    for k in (800, 10_000):
        path = tmp_path / f"path{k}.edges"
        lines = [f"terminals v0 v{k}"] + [f"v{i} v{i + 1}" for i in range(k)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["count", str(path), "--mode", "total"]) == 0
        assert capsys.readouterr().out == "1\n"


def test_counts_print_in_full_however_long(tmp_path, capsys):
    """3^10000 has 4772 digits, past the default int-to-str limit of Python
    3.11 and later; the limit is restored after the run."""
    k = 10_000
    triangles = [f"P(e(v{i},v{i + 1}),S(e(v{i},a{i}),e(a{i},v{i + 1})))" for i in range(k)]
    path = tmp_path / "chain.sp"
    path.write_text("S(" + ",".join(triangles) + ")\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = f"{3**k}\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert run(["count", str(path), "--mode", "total"]) == 0
    assert capsys.readouterr().out == expected
    if limit:
        assert sys.get_int_max_str_digits() == limit


def test_integer_options_keep_the_digit_limit(capsys):
    """Only printed counts lift the int-to-str limit: an integer option of
    more digits than the limit is a usage error, not a long parse."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the digit limit is off in this interpreter")
    assert run(["random", "--seed", "1" * (limit + 1)]) == 1
    assert "invalid int value" in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == limit


def test_internal_error_exit_code(diamond_file, capsys, monkeypatch):
    for error in (AssertionError, RecursionError, MemoryError, KeyError, TypeError, ImageNotFound):
        def broken(*args, error=error):
            raise error("broken invariant")

        monkeypatch.setattr("sptrees.cli.count_total", broken)
        assert run(["count", diamond_file, "--mode", "total"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: ")
        assert "Traceback" not in err


def test_an_invalid_tree_from_the_reduction_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """A finished reduction always yields a valid tree, so a fragment whose
    series parts do not chain is a broken invariant: exit 4, not 2."""
    fragment = ["s", "t", Series, ([], [("s", "a", Leaf, ()), ("b", "t", Leaf, ())])]
    with pytest.raises(RuntimeError):
        expr._orient(fragment, "s")
    monkeypatch.setattr(expr, "decompose_edge_list", lambda edges, s, t: expr._orient(fragment, s))
    path = tmp_path / "path.el"
    path.write_text("terminals s t\ns a\na t\n", encoding="utf-8")
    assert run(["parse", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert "Traceback" not in err


def test_a_rejection_the_builder_finds_no_violation_in_is_an_internal_error(
    diamond_file, capsys, monkeypatch
):
    """If the acceptor rejects text in which the checker finds no
    violation, the two disagree: a broken invariant, exit 4, and no tree."""
    monkeypatch.setattr(expr.TreeAcceptor, "finish", lambda self: None)
    with pytest.raises(RuntimeError):
        parse_sp(DIAMOND_TEXT)
    assert run(["parse", diamond_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal error: ")


@pytest.mark.parametrize("module", ["sptrees", "sptrees.cli"])
def test_module_entry_points(diamond_file, module):
    assert _fresh_run(["count", diamond_file, "--mode", "total"], module) == (0, "8\n")


@pytest.mark.parametrize("mode", ["oriented", "semioriented"])
def test_a_reader_that_stops_early_is_no_error(tmp_path, capsys, mode):
    """`enumerate ... | head -1`: once the reader closes the pipe, the run
    ends with exit 0 and nothing on stderr, not as invalid input (exit 2,
    "Broken pipe") and with no "Exception ignored" at interpreter exit.
    The 40-chain bundle prints far more than a pipe buffer holds."""
    path = tmp_path / "bundle.sp"
    chains = (f"S(e(s,a{i}),e(a{i},b{i}),e(b{i},t))" for i in range(40))
    path.write_text("P(" + ",".join(chains) + ")\n", encoding="utf-8")
    argv = ["enumerate", str(path), "--mode", mode]
    assert run(argv) == 0
    first = capsys.readouterr().out.splitlines(keepends=True)[0]
    proc = subprocess.Popen(
        [sys.executable, "-m", "sptrees", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_fresh_env(),
    )
    try:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        assert proc.stderr.read() == ""
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.stderr.close()
        proc.wait()
