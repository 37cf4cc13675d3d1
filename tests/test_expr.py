"""Expression parsing, serialization, edge-list recognition, random instances."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sptrees import (
    DisconnectedInput,
    NotSeriesParallel,
    RandomSpParams,
    SpParseError,
    SpSemanticError,
    SpSyntaxError,
    OrientedSP,
    SemiorientedSP,
    canonical_code,
    count_oriented,
    count_semioriented,
    count_total,
    decompose_edge_list,
    normalize,
    parse_sp,
    random_sp,
    reversal_code,
    serialize_sp,
    underlying_graph,
    validate,
)
from sptrees import core, expr
from sptrees.core import Leaf, Parallel, Series, edge, parallel, series
from sptrees.expr import read_edge_list, read_expressions, read_instances

from conftest import (
    DIAMOND_TEXT,
    THETA_TEXT,
    assert_acceptor_agrees,
    chain,
    deep_nest_text,
    preorder,
    reference_decompose_edge_list,
    small_corpus,
)


def test_parse_single_edge():
    tree = parse_sp("e(s,t)")
    assert tree == Leaf("s", "t", 0)


def test_parse_diamond_shape():
    tree = parse_sp(DIAMOND_TEXT)
    assert isinstance(tree, Parallel)
    assert (tree.source, tree.target) == ("2", "3")
    assert len(tree.children) == 3


def test_whitespace_is_insignificant():
    assert parse_sp(" P( e(s,t) ,\tS( e(s,a), e(a,t) ) ) ") == parse_sp(
        "P(e(s,t),S(e(s,a),e(a,t)))"
    )


def test_chain_mismatch_is_semantic_error():
    with pytest.raises(SpSemanticError, match="chain mismatch"):
        parse_sp("S(e(a,b),e(c,d))")


def test_self_loop_is_semantic_error():
    with pytest.raises(SpSemanticError, match="self-loop"):
        parse_sp("e(a,a)")


def test_multi_edge_is_semantic_error():
    with pytest.raises(SpSemanticError, match="multi-edge"):
        parse_sp("P(e(s,t),e(s,t))")


def test_deep_nest_round_trips_and_validates():
    # Strings, not trees, are compared: dataclass ==, hash and repr recurse.
    text = deep_nest_text(10_000)
    tree = parse_sp(text)
    assert serialize_sp(tree) == text
    assert validate(tree) == []
    graph = underlying_graph(tree)
    assert (graph.n, graph.m) == (5_003, 10_002)


# Each case pinned to the report of earlier releases, so that positions stay stable.
SYNTAX_ERRORS = [
    ("", 1, "'e', 'S', or 'P'", "end of input"),
    ("Q(e(a,b))", 1, "'e', 'S', or 'P'", "'Q'"),
    ("eX(a,b)", 1, "'e', 'S', or 'P'", "'eX'"),
    ("e(a b)", 5, "','", "'b'"),
    ("e(a,b", 6, "')'", "end of input"),
    ("S(e(a,b))x", 10, "end of input", "'x'"),
    ("e(,b)", 3, "vertex label", "','"),
    ("  Q(e(a,b))", 3, "'e', 'S', or 'P'", "'Q'"),
    ("S(e(a,b),P(e(b,c),S(e(b,d),e(d c))))", 32, "','", "'c'"),
    ("e(\t,b)", 4, "vertex label", "','"),
    ("e(\ta b)", 6, "','", "'b'"),
    ("e(a, ", 6, "vertex label", "end of input"),
    ("e(a,\u00e9)", 5, "vertex label", "'\u00e9'"),
    ("e(a\u00e9,b)", 4, "','", "'\u00e9'"),
    ("e(a,b),", 7, "end of input", "','"),
    ("S(e(a,b) ", 10, "')'", "end of input"),
    ("S(e(a,b);e(b,c))", 9, "')'", "';'"),
    ("S e(a,b)", 3, "'('", "'e'"),
]


@pytest.mark.parametrize(
    "text, position, expected, found",
    SYNTAX_ERRORS,
    ids=[f"{text}-{expected}" for text, _, expected, _ in SYNTAX_ERRORS],
)
def test_syntax_errors_carry_position_and_expectation(text, position, expected, found):
    with pytest.raises(SpSyntaxError) as err:
        parse_sp(text)
    assert (err.value.position, err.value.expected, err.value.found) == (
        position, expected, found
    )


SEMANTIC_ERRORS = [
    # A chain mismatch inside an S-under-S run, reported on the run's
    # flattened child list at the run's top.
    ("P(e(s,t),S(e(s,a),S(e(a,b),e(c,t))))",
     "root[1]: series chain mismatch b != c between children 1 and 2"),
    ("S(e(x,s),P(e(s,t),P(e(s,t),S(e(s,a),e(a,t)))))", "root[1]: parallel multi-edge"),
    ("P(e(s,t),S(e(s,t)))", "root[1]: series node needs at least 2 children"),
    ("S(S(e(a,b)),e(b,c))", "root[0]: series node needs at least 2 children"),
    ("P(S(e(s,a),e(a,t)),S(e(s,a),e(a,t)))",
     "root: children 0 and 1 share interior vertices ['a']"),
    ("e(a,a)", "root: self-loop at leaf"),
    ("S(S(e(a,b),e(b,b)),e(b,c))",
     "root[0][1]: self-loop at leaf; "
     "root: children 0 and 2 share vertices ['b'] beyond the chain terminal"),
    ("S(e(a,b),e(b,a))",
     "root: series terminals coincide; "
     "root: children 0 and 1 share vertices ['a'] beyond the chain terminal"),
    ("P(P(e(s,t),e(s,t)),e(t,s))",
     "root: parallel child 2 has terminals (t,s), expected (s,t); root: parallel multi-edge"),
    ("S(S(S(e(a,b))),e(b,a))",
     "root[0]: series node needs at least 2 children; "
     "root[0][0]: series node needs at least 2 children; root: series terminals coincide; "
     "root: children 0 and 1 share vertices ['a'] beyond the chain terminal"),
]


@pytest.mark.parametrize("text, message", SEMANTIC_ERRORS)
def test_semantic_errors_carry_paths_into_the_raw_input(text, message):
    # Pinned to the reports of earlier releases; paths index the input as written.
    with pytest.raises(SpSemanticError) as err:
        parse_sp(text)
    assert str(err.value) == "semantic error: " + message


@pytest.mark.parametrize("text", [text for text, _ in SEMANTIC_ERRORS])
def test_acceptor_rejects_what_the_builder_rejects(text):
    assert not assert_acceptor_agrees(lambda build: expr._feed(text, build))


# Every character a valid expression may hold, Unicode whitespace among them.
_CLEAN = st.text(st.sampled_from("eSPab_09(), \t\n\u2003\x1c\x85\u3000"), max_size=40)


@settings(max_examples=200, deadline=None)
@given(text=_CLEAN, stray=st.sampled_from("#$é٣\x00"), rest=st.text(max_size=10))
@example(text="P(e(s,t),\u2003S(e(s,a),\x1ce(a,t)))", stray="#", rest="e(x,y)")
@example(text="label", stray="é", rest="more)")
def test_tokens_are_the_regex_tokens(text, stray, rest):
    """On stray-free text `_tokens` gives `_TOKEN.findall`'s tokens; before a
    stray character, the tokens `_feed` reads are the regex's tokens of the
    whole text up to that character."""
    assert expr._tokens(text) == expr._TOKEN.findall(text)
    dirty = text + stray + rest
    cut = expr._STRAY.search(dirty).start()
    assert cut == len(text)
    before = len(expr._TOKEN.findall(dirty, 0, cut))
    assert expr._tokens(dirty[:cut]) == expr._TOKEN.findall(dirty)[:before]


def test_only_rejected_input_is_read_into_a_tree_checker(monkeypatch):
    """Valid expressions and edge lists are read by the acceptor alone, and
    valid trees built in code, `random_sp`'s among them, are normalized by
    it alone; each semantically invalid expression is read once more, and
    each invalid tree built in code replayed once more, into one checker; a
    syntax error stops the first reading."""
    built = []

    class Counted(core.TreeChecker):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(expr, "TreeChecker", Counted)
    monkeypatch.setattr(core, "TreeChecker", Counted)
    draws = [random_sp(RandomSpParams(seed=seed, max_depth=4)) for seed in range(20)]
    texts = [DIAMOND_TEXT, THETA_TEXT, deep_nest_text(300), "S(" * 50 + "e(v0,v1),"
             + ",".join(f"e(v{i},v{i + 1}))" for i in range(1, 51))]
    texts += [serialize_sp(tree) for tree in draws]
    for tree in draws:
        edges = underlying_graph(tree).edges
        texts.append(f"terminals {tree.source} {tree.target}\n"
                     + "".join(f"{u} {v}\n" for u, v in reversed(edges)))
    for text in texts:
        read_instances(text)
    nested = series(series(edge("a", "b"), edge("b", "c")), parallel(edge("c", "d"), parallel(
        series(edge("c", "x"), edge("x", "d")), series(edge("c", "y"), edge("y", "d")))))
    assert serialize_sp(normalize(nested)) == (
        "S(e(a,b),e(b,c),P(e(c,d),S(e(c,x),e(x,d)),S(e(c,y),e(y,d))))")
    assert built == []
    for text, _ in SEMANTIC_ERRORS:
        with pytest.raises(SpParseError, match="semantic error"):
            read_instances(text)
        assert len(built) == 1
        built.clear()
    with pytest.raises(core.InvalidTreeError, match="chain mismatch"):
        normalize(series(edge("a", "b"), edge("c", "d")))
    assert len(built) == 1
    built.clear()
    for text, *_ in SYNTAX_ERRORS:
        with pytest.raises(SpSyntaxError):
            parse_sp(text)
    assert built == []


def test_serialize_round_trips_the_diamond():
    assert serialize_sp(parse_sp(DIAMOND_TEXT)) == DIAMOND_TEXT


def test_serialize_flattened_nesting():
    assert serialize_sp(parse_sp("S(S(e(a,b),e(b,c)),e(c,d))")) == (
        "S(e(a,b),e(b,c),e(c,d))"
    )


def test_decompose_single_edge():
    assert decompose_edge_list([("s", "t")], "s", "t") == Leaf("s", "t", 0)


def test_decompose_diamond_matches_expression():
    edges = [("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"), ("3", "4")]
    tree = decompose_edge_list(edges, "2", "3")
    assert isinstance(tree, Parallel)
    assert sorted(underlying_graph(tree).edges) == sorted(
        tuple(sorted(e)) for e in edges
    )
    assert canonical_code(tree) == canonical_code(parse_sp(DIAMOND_TEXT))


def test_decompose_k4_is_rejected():
    k4 = [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
    with pytest.raises(NotSeriesParallel):
        decompose_edge_list(k4, "1", "2")


def test_decompose_disconnected_is_rejected():
    with pytest.raises(DisconnectedInput):
        decompose_edge_list([("a", "b"), ("c", "d")], "a", "b")


def test_decompose_rejects_malformed_input():
    with pytest.raises(ValueError):
        decompose_edge_list([("a", "a")], "a", "b")
    with pytest.raises(ValueError):
        decompose_edge_list([("a", "b"), ("b", "a")], "a", "b")
    with pytest.raises(ValueError):
        decompose_edge_list([("a", "b")], "a", "c")


def test_decompose_long_path():
    k = 10_000
    tree = decompose_edge_list([(f"v{i}", f"v{i + 1}") for i in range(k)], "v0", f"v{k}")
    assert serialize_sp(tree) == serialize_sp(chain(k))


def test_decompose_wide_parallel_of_chains():
    k = 1_000
    edges = [pair for i in range(k) for pair in (("s", f"m{i}"), (f"m{i}", "t"))]
    tree = decompose_edge_list(edges, "s", "t")
    assert isinstance(tree, Parallel) and len(tree.children) == k
    assert sorted(underlying_graph(tree).edges) == sorted(tuple(sorted(e)) for e in edges)


def _edge_list_text(tree, seed: int) -> str:
    """The edge-list file of `tree`'s graph, lines shuffled and endpoints
    swapped by a seeded draw."""
    rng = random.Random(seed)
    edges = underlying_graph(tree).edges
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return f"terminals {tree.source} {tree.target}\n" + "\n".join(lines) + "\n"


def _path_text(k: int, seed: int) -> str:
    """A k-edge path through v0, ..., vk as an edge-list file, like the
    benchmark's path800.el: labels along the path, lines in seeded order."""
    return _edge_list_text(chain(k), seed)


def _copies_text(k: int) -> str:
    """CI's P of k copies of S(e,P(e,S(e,e))), 4k edges."""
    copy = "S(e(s,a{0}),P(e(a{0},t),S(e(a{0},b{0}),e(b{0},t))))"
    return "P(" + ",".join(copy.format(i) for i in range(k)) + ")"


def _reads(monkeypatch):
    """Counters of `Leaf` constructions and of the acceptor's opens and closes."""
    calls = {"leaf": 0, "open": 0, "close": 0}

    def counted(name, method):
        def call(*args):
            calls[name] += 1
            return method(*args)
        return call

    monkeypatch.setattr(Leaf, "__init__", counted("leaf", Leaf.__init__))
    monkeypatch.setattr(core.TreeAcceptor, "open", counted("open", core.TreeAcceptor.open))
    monkeypatch.setattr(core.TreeAcceptor, "close", counted("close", core.TreeAcceptor.close))
    return calls


@pytest.mark.parametrize("k", [800, 10_000])
def test_a_path_reaches_the_acceptor_as_one_series_node(k, monkeypatch):
    """The reducer extends one series run along the path, so the acceptor
    sees one open and one close, not k - 1 nested binary fragments."""
    text = _path_text(k, seed=k)
    calls = _reads(monkeypatch)
    (tree,) = read_instances(text)
    assert calls == {"leaf": k, "open": 1, "close": 1}
    assert serialize_sp(tree) == serialize_sp(chain(k))


def _corpus_texts():
    """Each corpus tree as an expression and as an edge list, with test ids."""
    named = [(f"draw{i}", tree) for i, tree in enumerate(small_corpus(12, max_vertices=12))] + [
        ("diamond", parse_sp(DIAMOND_TEXT)), ("theta", parse_sp(THETA_TEXT)),
        ("nest300", parse_sp(deep_nest_text(300))), ("copies200", parse_sp(_copies_text(200))),
        ("path800", chain(800)),
    ]
    return [pytest.param(serialize_sp(tree), id=f"{name}.sp") for name, tree in named] + [
        pytest.param(_edge_list_text(tree, seed), id=f"{name}.el")
        for seed, (name, tree) in enumerate(named)
    ]


@pytest.mark.parametrize("text", _corpus_texts())
def test_reading_builds_m_leaves_and_one_open_per_inner_node(text, monkeypatch):
    """Either reader constructs exactly one `Leaf` per edge.  The edge-list
    reducer hands the acceptor one open/close pair per inner node of the
    tree it returns: its fragments are already the normalized nodes."""
    calls = _reads(monkeypatch)
    (tree,) = read_instances(text)
    nodes = preorder(tree)
    inner = sum(not isinstance(node, Leaf) for node in nodes)
    assert calls["leaf"] == len(nodes) - inner == underlying_graph(tree).m
    if text.startswith("terminals"):
        assert calls["open"] == calls["close"] == inner


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 4), line_seed=st.integers(0, 99))
def test_the_reducer_builds_the_binary_reference_tree(seed, depth, line_seed):
    """The n-ary runs and bundles give the tree the binary reducer gives,
    node for node, leaf indices included, so `.el` output numbering stays."""
    tree = random_sp(RandomSpParams(seed=seed, max_depth=depth, max_children=4))
    lines = _edge_list_text(tree, line_seed).splitlines()
    _, s, t = lines[0].split()
    edges = [tuple(line.split()) for line in lines[1:]]
    got = decompose_edge_list(edges, s, t)
    assert got == reference_decompose_edge_list(edges, s, t)


@settings(max_examples=150, deadline=None)
@given(edges=st.lists(st.tuples(*[st.sampled_from(["s", "t", "a", "b", "c", "d", "x-y"])] * 2),
                      min_size=1, max_size=10))
def test_the_reducer_fails_as_the_binary_reference_does(edges):
    """On any small edge list, the reducer and its binary reference return
    equal trees or raise the same error with the same message; a bad label
    is named at its first edge, as when every edge checked both labels."""
    def outcome(reduce):
        try:
            return reduce(edges, "s", "t")
        except ValueError as exc:
            return type(exc), str(exc)

    assert outcome(decompose_edge_list) == outcome(reference_decompose_edge_list)


def test_random_depth_zero_is_single_edge():
    assert random_sp(RandomSpParams(seed=1, max_depth=0)) == Leaf("v0", "v1", 0)


def test_random_is_deterministic():
    params = RandomSpParams(seed=77, max_depth=3, max_children=4, leaf_bias=0.3)
    assert random_sp(params) == random_sp(params)


def test_random_thousand_instances_validate():
    for seed in range(1000):
        tree = random_sp(RandomSpParams(seed=seed, max_depth=3))
        assert validate(tree) == []


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parse_serialize_round_trip(seed):
    tree = random_sp(RandomSpParams(seed=seed, max_depth=3))
    assert parse_sp(serialize_sp(tree)) == tree


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_decompose_reproduces_random_instances(seed):
    tree = random_sp(RandomSpParams(seed=seed, max_depth=3))
    g = underlying_graph(tree)
    rebuilt = decompose_edge_list(list(g.edges), tree.source, tree.target)
    assert sorted(underlying_graph(rebuilt).edges) == sorted(g.edges)
    assert canonical_code(rebuilt) == canonical_code(tree)


def _invariants(tree):
    return (
        canonical_code(tree),
        reversal_code(tree),
        count_oriented(OrientedSP(tree)),
        count_semioriented(SemiorientedSP(tree)),
        count_total(OrientedSP(tree)),
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), rng=st.randoms(use_true_random=False))
def test_edge_list_recognition_is_invariant_under_relabeling(seed, rng):
    tree = random_sp(RandomSpParams(seed=seed, max_depth=3))
    g = underlying_graph(tree)
    images = [f"w{i}" for i in range(g.n)]
    rng.shuffle(images)
    relabel = dict(zip(g.vertices, images))
    edges = [(relabel[u], relabel[v]) for u, v in g.edges]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    rebuilt = decompose_edge_list(edges, relabel[tree.source], relabel[tree.target])
    assert _invariants(rebuilt) == _invariants(tree)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reader_output_is_already_normal(seed):
    tree = random_sp(RandomSpParams(seed=seed, max_depth=3))
    g = underlying_graph(tree)
    for read in (parse_sp(serialize_sp(tree)),
                 decompose_edge_list(list(g.edges), tree.source, tree.target)):
        assert validate(read) == []
        assert normalize(read) == read


def test_readers_do_not_call_normalize(monkeypatch):
    def refuse(node):
        raise AssertionError("a reader called normalize")

    monkeypatch.setattr(core, "normalize", refuse)
    monkeypatch.setattr(expr, "normalize", refuse)
    assert serialize_sp(parse_sp(DIAMOND_TEXT)) == DIAMOND_TEXT
    edges = read_instances("terminals 2 3\n1 2\n1 3\n2 3\n2 4\n3 4\n")[0]
    assert canonical_code(edges) == canonical_code(parse_sp(DIAMOND_TEXT))


def test_deep_same_kind_nest_parses_flat():
    # S(S(S(...),e),e): each S opens inside an S, so the whole run is one node.
    k = 10_000
    text = "S(" * k + "e(v0,v1)," + ",".join(f"e(v{i},v{i + 1}))" for i in range(1, k + 1))
    tree = parse_sp(text)
    assert isinstance(tree, Series) and len(tree.children) == k + 1
    assert serialize_sp(tree) == serialize_sp(chain(k + 1))


def test_read_expressions_with_comments():
    text = "# a comment\n\ne(s,t)  # trailing\nS(e(a,b),e(b,c))\n"
    trees = read_expressions(text)
    assert [serialize_sp(t) for t in trees] == ["e(s,t)", "S(e(a,b),e(b,c))"]


def test_read_edge_list_format():
    text = "# diamond\nterminals 2 3\n1 2\n1 3\n2 3\n2 4\n3 4\n"
    tree = read_edge_list(text)
    assert canonical_code(tree) == canonical_code(parse_sp(DIAMOND_TEXT))


def test_edge_list_header_token_must_be_terminals():
    with pytest.raises(ValueError, match="must start with 'terminals s t'"):
        read_edge_list("terminalsX a b\na b\n")
    with pytest.raises(SpParseError, match="found 'terminalsX'"):
        read_instances("terminalsX a b\na b\n")


def test_read_instances_autodetects():
    as_expr = read_instances("e(s,t)\n")
    as_edges = read_instances("terminals s t\ns t\n")
    assert as_expr == as_edges == [Leaf("s", "t", 0)]
