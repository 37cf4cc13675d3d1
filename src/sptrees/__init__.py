"""Nonequivalent spanning trees of series-parallel graphs.

Enumerate and count the spanning trees (and near trees) of oriented
and semioriented two-terminal series-parallel graphs up to graph
automorphism, with a brute-force orbit oracle for verification.
"""

from .canonical import (
    IsoClass,
    IsoClassPartition,
    MirrorPairing,
    canonical_code,
    iso_map,
    mirror_pairing,
    partition_classes,
    reversal_code,
)
from .core import (
    EdgeSet,
    InvalidTreeError,
    LabeledGraph,
    Leaf,
    Node,
    OrientedSP,
    Parallel,
    SemiorientedSP,
    Series,
    Violation,
    edge,
    normalize,
    parallel,
    series,
    underlying_graph,
    validate,
)
from .expr import (
    DisconnectedInput,
    NotSeriesParallel,
    RandomSpParams,
    SpParseError,
    SpSemanticError,
    SpSyntaxError,
    decompose_edge_list,
    parse_sp,
    random_sp,
    serialize_sp,
)
from .generate import (
    CountPair,
    ImageNotFound,
    count_oriented,
    count_total,
    iter_oriented_near,
    iter_oriented_spanning,
    multiset_enumerate,
    near_tree_index,
    oriented_both,
    oriented_spanning,
    spanning_tree_index,
    unrank,
)
from .oracle import (
    FixBoth,
    FixNone,
    FixSet,
    LimitExceeded,
    NonIntegralResult,
    OrbitReport,
    all_near_trees,
    all_spanning_trees,
    automorphisms,
    burnside_count,
    kirchhoff_count,
    orbit_partition,
)
from .semi import (
    count_semioriented,
    iter_semioriented_spanning,
    reversal_index_perm,
    semioriented_spanning,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
