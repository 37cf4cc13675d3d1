"""Every simple oriented SP shape with up to 9 edges, listed once and verified."""

import pytest

from sptrees import RandomSpParams, canonical_code, generate, parse_sp, random_sp, underlying_graph

from conftest import (
    mirror_symmetric,
    orbit_sweep,
    shape_index_sweep,
    shape_sweep,
    small_corpus,
    sp_shapes,
)

TIER1_EDGES = 9


def _codes(m: int) -> list[str]:
    return [canonical_code(parse_sp(text)) for text in sp_shapes(m)]


def test_shape_counts():
    counts = [len(sp_shapes(m)) for m in range(1, TIER1_EDGES + 1)]
    assert counts == [1, 1, 2, 5, 13, 36, 103, 306, 930]


def test_shapes_have_their_edge_count_and_pairwise_distinct_codes():
    codes = []
    for m in range(1, TIER1_EDGES + 1):
        assert {underlying_graph(parse_sp(text)).m for text in sp_shapes(m)} == {m}
        codes += _codes(m)
    assert len(set(codes)) == len(codes) == 1397


def test_shapes_hold_every_small_drawn_shape():
    """Every shape of at most 9 edges that the corpora draw is among the
    listed shapes (53 corpus, 21 mirror-symmetric and 227 random draws)."""
    listed = {code for m in range(1, TIER1_EDGES + 1) for code in _codes(m)}
    drawn = (
        small_corpus(60)
        + [mirror_symmetric(seed) for seed in range(40)]
        + [random_sp(RandomSpParams(seed=seed)) for seed in range(300)]
    )
    small = [tree for tree in drawn if underlying_graph(tree).m <= TIER1_EDGES]
    assert len(small) == 53 + 21 + 227
    assert {canonical_code(tree) for tree in small} <= listed


def test_every_shape_passes_verify():
    assert shape_sweep(TIER1_EDGES) == (1397, [])


def test_every_shape_has_the_fast_counts_as_its_orbit_counts():
    """On every shape, `orbit_partition` and `burnside_count` meet the fast
    counts (`orbit_sweep`); CI runs the same sweep up to 11 edges."""
    assert orbit_sweep(TIER1_EDGES) == (1397, [])


def test_every_shape_streams_its_counts_and_indexes_each_tree():
    """On every shape, the streams hold the plan's counts, `_index` gives
    each streamed tree its position and `_unrank` each position its tree
    (`shape_index_sweep`); CI runs the same sweep up to 11 edges."""
    assert shape_index_sweep(TIER1_EDGES) == (1397, 64035)


@pytest.mark.parametrize("tail", [1, 2])
def test_every_shape_streams_and_indexes_each_tree_with_every_block_folded(tail, monkeypatch):
    """The same sweep with no fold cut (`generate._sums`): at a tail of one
    entry every block of two or more lists folds its last list, and at two
    runs of one-entry lists fold too, a few into copied tails.  CI runs the
    first up to 11 edges."""
    monkeypatch.setattr(generate, "_TAIL", tail)
    monkeypatch.setattr(generate, "_FOLD", 0)
    assert shape_index_sweep(TIER1_EDGES) == (1397, 64035)
