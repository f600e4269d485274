import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdglab.decomposition import Prepared
from sdglab.disk import RangeAssignment
from sdglab.graph import WeightedGraph, complete_graph, kruskal_msf
from sdglab.hamiltonian import (
    EXACT_LIMIT,
    approx_ham_path,
    exact_min_ham_path,
    path_weight,
    shortcut_path,
)
from sdglab.instances import (
    gen_chain_metric,
    gen_random_euclidean,
    gen_random_matrix_metric,
    gen_star_metric,
)

import support
from strategies import metrics


def test_exact_chain_is_the_path():
    m = gen_chain_metric(4).space
    h = exact_min_ham_path(m)
    assert h.order == (0, 1, 2, 3)
    assert h.weight == 3.0
    assert h == support.mask_loop_min_ham_path(m)


def test_exact_star_matches_permutation_scan():
    m = gen_star_metric(4).space
    h = exact_min_ham_path(m)
    order, weight = support.permutation_min_path(m.matrix)
    assert h.weight == weight
    assert h.weight == 4.0  # hub used internally: 1 + 1 + 2


def test_exact_matches_permutation_scan_random():
    for seed in range(6):
        m = gen_random_euclidean(7 + seed % 3, 2, 2.0, seed)
        h = exact_min_ham_path(m)
        _, weight = support.permutation_min_path(m.matrix)
        assert h.weight == weight


def test_exact_rejects_out_of_range():
    with pytest.raises(ValueError):
        exact_min_ham_path(gen_random_euclidean(2, 1, 2.0, 0).induce([0])[0])
    big = gen_random_euclidean(19, 1, 2.0, 0)
    with pytest.raises(ValueError):
        exact_min_ham_path(big)


def test_exact_on_graph_without_ham_path():
    claw = WeightedGraph.from_edges(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
    with pytest.raises(ValueError):
        exact_min_ham_path(claw)


def test_exact_on_line_graph():
    # forced to alternate between the endpoints and the middle points
    from sdglab.instances import gen_line_graph

    b = gen_line_graph(5, 1000.0, 1e-4)
    h = exact_min_ham_path(b.space)
    assert sorted(h.order) == list(range(5))
    assert h.weight == path_weight(b.space, h.order)
    # bipartite with sides 2 and n-2: a path exists only for n = 4 and 5
    assert sorted(exact_min_ham_path(gen_line_graph(4).space).order) == [0, 1, 2, 3]
    for n in range(6, 11):
        with pytest.raises(ValueError, match="^graph has no Hamiltonian path$"):
            exact_min_ham_path(gen_line_graph(n).space)


def test_approx_chain_preorder_is_the_path():
    m = gen_chain_metric(5).space
    h = approx_ham_path(m)
    assert h.weight == 4.0
    assert h == exact_min_ham_path(m)  # on a chain the preorder is optimal
    mst_w = kruskal_msf(complete_graph(m)).weight
    assert h.weight <= 2.0 * mst_w


def test_approx_two_points_is_the_edge():
    m = gen_random_euclidean(2, 2, 2.0, 5)
    h = approx_ham_path(m)
    assert h.weight == m.matrix[0, 1]


def test_approx_bounded_on_random_l1():
    m = gen_random_euclidean(64, 2, 1.0, 123)
    h = approx_ham_path(m)
    mst_w = kruskal_msf(complete_graph(m)).weight
    assert mst_w <= h.weight <= 2.0 * mst_w


@given(metrics(min_n=2, max_n=16))
def test_approx_at_most_twice_mst(m):
    h = approx_ham_path(m)
    assert h.weight <= 2.0 * kruskal_msf(complete_graph(m)).weight


@given(metrics(min_n=2, max_n=9))
@settings(max_examples=20)
def test_exact_never_beaten_by_approx(m):
    assert exact_min_ham_path(m).weight <= approx_ham_path(m).weight


def test_shortcut_full_set_identity():
    m = gen_random_euclidean(8, 2, 2.0, 44)
    h = exact_min_ham_path(m)
    s = shortcut_path(m, h, range(8))
    assert s.order == h.order and s.weight == h.weight


def test_shortcut_chain_odd_vertices():
    m = gen_chain_metric(5).space
    h = exact_min_ham_path(m)
    s = shortcut_path(m, h, [0, 2, 4])
    assert s.order == (0, 2, 4)
    assert s.weight == 4.0  # two hops of induced distance 2


@given(metrics(min_n=3, max_n=16), st.data())
def test_shortcut_never_increases_weight(m, data):
    h = approx_ham_path(m)
    subset = sorted(data.draw(st.sets(st.integers(0, m.n - 1), min_size=1, max_size=m.n)))
    s = shortcut_path(m, h, subset)
    assert s.weight <= h.weight


@given(metrics(min_n=4, max_n=14), st.data())
def test_shortcut_composes_over_nested_subsets(m, data):
    h = approx_ham_path(m)
    outer = sorted(data.draw(st.sets(st.integers(0, m.n - 1), min_size=2, max_size=m.n)))
    inner = sorted(data.draw(st.sets(st.sampled_from(outer), min_size=1, max_size=len(outer))))
    twice = shortcut_path(m, shortcut_path(m, h, outer), inner)
    once = shortcut_path(m, h, inner)
    assert twice.order == once.order and twice.weight == once.weight


def test_ham_path_auto_dispatch():
    small = gen_random_euclidean(10, 2, 2.0, 1)
    assert Prepared(small, RangeAssignment.constant(10, 1.0), "auto").path == exact_min_ham_path(small)
    large = gen_random_euclidean(20, 2, 2.0, 1)
    assert Prepared(large, RangeAssignment.constant(20, 1.0), "auto").path == approx_ham_path(large)
    with pytest.raises(ValueError, match="unknown ham_mode 'nope'"):
        Prepared(small, RangeAssignment.constant(10, 1.0), "nope")


def _same_as_mask_loop(space, reference=support.mask_loop_min_ham_path):
    """exact_min_ham_path returns the reference's HamPath, or raises its message."""
    try:
        expected = reference(space)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            exact_min_ham_path(space)
        return None
    h = exact_min_ham_path(space)
    assert h == expected
    return h


def _same_as_layered_argmin(space):
    return _same_as_mask_loop(space, support.layered_argmin_min_ham_path)


@pytest.mark.parametrize("n", range(3, 12))
def test_exact_matches_mask_loop_star_and_chain(n):
    # unit radii, all distances integers: every length ties with many others
    _same_as_mask_loop(gen_star_metric(n).space)
    _same_as_mask_loop(gen_chain_metric(n).space)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_exact_matches_mask_loop_grid_snapped_line(p):
    for n in range(2, 12):
        for seed in range(3):
            _same_as_mask_loop(gen_random_euclidean(n, 1, p, 97 * n + seed))


def test_exact_matches_mask_loop_matrix():
    for n in range(2, 12):
        for seed in range(3):
            _same_as_mask_loop(gen_random_matrix_metric(n, 31 * n + seed))


def test_exact_matches_mask_loop_sparse_graphs():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(120):
        n = int(rng.integers(2, 10))
        edges = tuple(
            (u, v, float(rng.integers(1, 4)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        )
        outcomes.add(_same_as_mask_loop(WeightedGraph.from_edges(n, edges)) is None)
    assert outcomes == {True, False}  # both paths and raises were compared


@pytest.mark.parametrize("n", range(12, EXACT_LIMIT + 2))
def test_exact_matches_layered_argmin_star_and_chain(n):
    # the mask loop is too slow here; n = EXACT_LIMIT + 1 compares the error
    _same_as_layered_argmin(gen_star_metric(n).space)
    _same_as_layered_argmin(gen_chain_metric(n).space)


@pytest.mark.parametrize("n", range(12, EXACT_LIMIT + 1))
def test_exact_matches_layered_argmin_123_weights(n):
    # complete graphs with weights in {1, 2, 3}: at n = 14, 57147 states tie and
    # 6812 of them first at u >= 8
    rng = np.random.default_rng(n)
    w = rng.integers(1, 4, size=(n, n))
    edges = tuple((u, v, float(w[u, v])) for u in range(n) for v in range(u + 1, n))
    _same_as_layered_argmin(WeightedGraph.from_edges(n, edges))


@pytest.mark.parametrize("n", range(12, EXACT_LIMIT + 1))
def test_exact_matches_layered_argmin_sparse_graphs(n):
    # sparse {1, 2, 3}-weight graphs leave most states unreachable
    rng = np.random.default_rng(100 + n)
    perm = rng.permutation(n)
    spine = {tuple(sorted(map(int, e))) for e in zip(perm, perm[1:])}
    extra = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15}
    with_path = WeightedGraph.from_edges(n, ((u, v, float(rng.integers(1, 4))) for u, v in sorted(spine | extra)))
    # three leaves on vertex 3: no path can visit them all
    leaves = {(u, v) for u, v in extra if u > 3} | {(0, 3), (1, 3), (2, 3)}
    without = WeightedGraph.from_edges(n, ((u, v, float(rng.integers(1, 4))) for u, v in sorted(leaves)))
    assert _same_as_layered_argmin(with_path) is not None
    assert _same_as_layered_argmin(without) is None


def test_exact_memory_at_the_auto_cutoff():
    m = gen_chain_metric(16).space
    tracemalloc.start()
    try:
        h = exact_min_ham_path(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.order == tuple(range(16))
    assert peak < 7 * 2**20  # the int8 parent table is 1 MiB, each float64 layer at most 1.5 MiB


def test_exact_memory_stays_under_the_full_table():
    m = gen_chain_metric(EXACT_LIMIT).space
    tracemalloc.start()
    try:
        h = exact_min_ham_path(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.order == tuple(range(EXACT_LIMIT))
    assert peak < 32 * 2**20  # a full 2^18 x 18 float64 table alone is 36 MiB
