"""The value types keep the interface of the dataclasses they replaced:
constructors by position and keyword with the same defaults, `==`, `hash`
and `repr` by their fields, the dataclass errors on assigning to a frozen
one, and pickling and copying through the constructor.  `EdgeSet` is its
mask, an `int`, with the dataclass's `repr` and errors."""

import copy
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import sptrees
from sptrees import (
    CountPair,
    EdgeSet,
    FixBoth,
    FixNone,
    FixSet,
    IsoClass,
    IsoClassPartition,
    LabeledGraph,
    Leaf,
    MirrorPairing,
    OrbitReport,
    OrientedSP,
    RandomSpParams,
    SemiorientedSP,
    Violation,
)
from sptrees.generate import _ClassPlan, _Plan

LEAF_PLAN = ("leaf", "E", "E", 1, 2, 1, 1, 1, 1, 1, 1, ())
LEAF_FLAT = "[('leaf', 'E', 'E', 1, 2, 1, 1, 1, 1, 1, 1, 0)]"
ISO = ("E", (0, 1), {0: {0: 0}, 1: {1: 0}})
ISO_TEXT = "IsoClass(code='E', members=(0, 1), to_rep={0: {0: 0}, 1: {1: 0}})"
ORBITS = ((EdgeSet(1), (EdgeSet(1), EdgeSet(2))),)

# (type, field names, a full argument tuple, one that differs in a field or
# None, its repr, frozen, hashable, (short, full) argument tuples equal by the
# defaults or None).
CASES = [
    (LabeledGraph, ("vertices", "edges"), (("a", "b"), (("a", "b"),)),
     (("a", "c"), (("a", "c"),)),
     "LabeledGraph(vertices=('a', 'b'), edges=(('a', 'b'),))", True, True, None),
    (OrientedSP, ("tree",), (Leaf("s", "t", 0),), (Leaf("s", "u", 0),),
     "OrientedSP(tree=Leaf(source='s', target='t', index=0))", True, True, None),
    (SemiorientedSP, ("tree",), (Leaf("s", "t", 0),), (Leaf("s", "u", 0),),
     "SemiorientedSP(tree=Leaf(source='s', target='t', index=0))", True, True, None),
    (Violation, ("path", "message"), ("root", "bad"), ("root[0]", "bad"),
     "Violation(path='root', message='bad')", True, True, None),
    (CountPair, ("spanning", "near"), (3, 4), (3, 5), "CountPair(spanning=3, near=4)",
     True, True, None),
    (OrbitReport, ("orbits", "group_order"), (ORBITS, 2), (ORBITS, 4),
     "OrbitReport(orbits=((EdgeSet(mask=1), (EdgeSet(mask=1), EdgeSet(mask=2))),), "
     "group_order=2)", True, True, None),
    (FixBoth, ("s", "t"), ("s", "t"), ("t", "s"), "FixBoth(s='s', t='t')", True, True, None),
    (FixSet, ("s", "t"), ("s", "t"), ("t", "s"), "FixSet(s='s', t='t')", True, True, None),
    (FixNone, (), (), None, "FixNone()", True, True, None),
    (RandomSpParams, ("seed", "max_depth", "max_children", "leaf_bias"), (7, 4, 2, 0.5),
     (8, 4, 2, 0.5), "RandomSpParams(seed=7, max_depth=4, max_children=2, leaf_bias=0.5)",
     True, True, ((7,), (7, 3, 3, 0.4))),
    (IsoClass, ("code", "members", "to_rep"), ISO, ("E", (0,), {0: {0: 0}}), ISO_TEXT,
     False, False, None),
    (IsoClassPartition, ("classes",), ((IsoClass(*ISO),),), ((),),
     f"IsoClassPartition(classes=({ISO_TEXT},))", False, False, None),
    (MirrorPairing, ("kind", "class_pairs"), ("parallel", ((0, 0),)), ("parallel", ((0, 1),)),
     "MirrorPairing(kind='parallel', class_pairs=((0, 0),))", False, False,
     (("series",), ("series", None))),
    (_Plan, ("kind", "code", "rev", "m", "n", "st", "nt", "tau", "nu", "ss", "sn", "parts"),
     LEAF_PLAN, LEAF_PLAN[:5] + (2,) + LEAF_PLAN[6:], f"_Plan({LEAF_FLAT})", False, False,
     (LEAF_PLAN[:-1], LEAF_PLAN)),
    (_ClassPlan, ("size", "rep_plan", "nt", "st"), (2, _Plan(*LEAF_PLAN), 1, 2),
     (3, _Plan(*LEAF_PLAN), 1, 2), f"_ClassPlan(size=2, rep_plan=_Plan({LEAF_FLAT}), nt=1, st=2)",
     False, False, None),
]


@pytest.mark.parametrize(
    "kind, names, args, other, text, frozen, hashable, defaults",
    CASES,
    ids=[case[0].__name__ for case in CASES],
)
def test_value_types_keep_the_dataclass_interface(
    kind, names, args, other, text, frozen, hashable, defaults
):
    value = kind(*args)
    assert [getattr(value, name) for name in names] == list(args)
    assert kind(**dict(zip(names, args))) == value == kind(*args)
    assert not value != kind(*args) and value != object()
    if other is not None:
        assert kind(*other) != value and not kind(*other) == value
    if defaults is not None:
        short, full = defaults
        assert kind(*short) == kind(*full)
        assert [getattr(kind(*short), name) for name in names] == list(full)
    assert repr(value) == text
    if kind in vars(sptrees).values():
        assert kind.__match_args__ == names
    if hashable:
        assert hash(value) == hash(kind(*args))
        if not isinstance(value, OrientedSP | SemiorientedSP):
            assert hash(value) == hash(tuple(args))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    for name in names + ("extra",) * frozen:
        if frozen:
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        else:
            changed = kind(*args)
            setattr(changed, name, None)
            assert getattr(changed, name) is None
    assert repr(value) == text
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert twin == value and repr(twin) == text and type(twin) is kind


def test_an_edge_set_is_its_mask():
    """An `EdgeSet` equals, hashes, orders and pickles as its int, prints as
    the dataclass it was, and, frozen as the records are, takes no
    attribute; int operations on it give plain ints."""
    es = EdgeSet(5)
    assert repr(es) == "EdgeSet(mask=5)"
    assert es == 5 and hash(es) == hash(5) and es != EdgeSet(6)
    assert es.mask == 5 and type(es.mask) is int and type(es | 2) is int
    assert sorted([EdgeSet(6), es, EdgeSet(1)]) == [1, 5, 6]
    twins = [pickle.loads(pickle.dumps(es, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins + [copy.copy(es), copy.deepcopy(es)]:
        assert type(twin) is EdgeSet and twin == es and repr(twin) == "EdgeSet(mask=5)"
    for name in ("mask", "extra"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(es, name, 6)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(es, name)
    assert not hasattr(es, "__dict__")
    assert EdgeSet.__match_args__ == ("mask",)
    match es:
        case EdgeSet(mask):
            assert mask == 5


def test_kinds_with_equal_fields_differ():
    """Equal fields in two types never make equal values."""
    tree = Leaf("s", "t", 0)
    assert FixBoth("s", "t") != FixSet("s", "t")
    assert OrientedSP(tree) != SemiorientedSP(tree)
    assert SemiorientedSP(tree) == SemiorientedSP(Leaf("t", "s", 0))
    assert OrientedSP(tree) != OrientedSP(Leaf("t", "s", 0))
    assert len({FixBoth("s", "t"), FixSet("s", "t"), FixNone(), FixNone()}) == 3


def test_a_labeled_graph_indexes_lazily():
    """A graph keeps its edge and vertex indexes, built on first use, and a
    copy built through its constructor indexes again."""
    graph = LabeledGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert "edge_index" not in graph.__dict__
    assert graph.index_of("c", "b") == 1 and graph.vertex_index == {"a": 0, "b": 1, "c": 2}
    assert graph.edge_index is graph.edge_index
    twin = pickle.loads(pickle.dumps(graph))
    assert twin == graph and twin.index_of("a", "b") == 0 and (twin.n, twin.m) == (3, 2)


def test_importing_the_package_loads_no_dataclass_machinery():
    """`import sptrees` and `import sptrees.cli`, in a child with no site
    packages, load none of `dataclasses` and the modules it imports, which
    took most of the package's import time."""
    src = Path(sptrees.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sptrees, sptrees.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert child.stdout.strip() == ""
