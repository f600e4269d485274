import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdglab.disk import RangeAssignment, build_sdg, sdg_msf
from sdglab.graph import (
    Forest,
    RootedTree,
    WeightedGraph,
    brute_force_optimal_tree,
    complete_graph,
    cycle_property_check,
    dense_msf,
    edge_key,
    forest_cycle,
    kruskal_msf,
    metric_mst,
    sum_pairwise,
    tree_parameters,
)
from sdglab.instances import (
    gen_chain_metric,
    gen_random_euclidean,
    gen_random_ranges,
    gen_star_metric,
)
from sdglab.metric import Metric

import support
from strategies import metric_range_pairs, seeds

C3 = WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 2.0), (1, 2, 1000.0)))


def test_kruskal_c3_mst():
    forest = kruskal_msf(C3)
    assert forest.edge_pairs() == {(0, 1), (0, 2)}
    assert forest.weight == 3.0


def test_kruskal_edgeless():
    forest = kruskal_msf(WeightedGraph(n=4, edges=()))
    assert forest.edges == ()
    assert forest.num_components == 4


def test_kruskal_matches_cayley_enumeration():
    m = gen_random_euclidean(7, 2, 2.0, 314)
    got = kruskal_msf(complete_graph(m)).weight
    assert got == support.cayley_min_tree_weight(m.matrix)


def test_kruskal_matches_subset_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        g = support.random_connected_graph(n, int(rng.integers(0, 4)), rng)
        assert kruskal_msf(g).weight == support.brute_min_spanning_weight(g)


def test_kruskal_deterministic_under_permutation():
    rng = np.random.default_rng(3)
    g = support.random_connected_graph(9, 6, rng)
    perm = list(g.edges)
    rng.shuffle(perm)
    assert kruskal_msf(WeightedGraph(n=9, edges=tuple(perm))).edges == kruskal_msf(g).edges


def _assert_prim_equals_kruskal(m, r):
    """Whole forests, component labels included, for the disk graph and the complete graph."""
    assert sdg_msf(m, r) == kruskal_msf(build_sdg(m, r))
    assert metric_mst(m) == kruskal_msf(complete_graph(m))


@given(metric_range_pairs(max_n=40))
def test_dense_msf_equals_kruskal_random(pair):
    _assert_prim_equals_kruskal(*pair)


@pytest.mark.parametrize("n", [3, 4, 7, 20])
def test_dense_msf_equals_kruskal_all_ties(n):
    for bundle in (gen_star_metric(n), gen_chain_metric(n)):
        _assert_prim_equals_kruskal(bundle.metric, bundle.ranges)


def test_dense_msf_equals_kruskal_disconnected():
    components = set()
    for seed in range(20):
        for p in (2.0, 1.0, math.inf):
            m = gen_random_euclidean(24, 2, p, seed)
            r = gen_random_ranges(m, "uniform", seed + 100)
            _assert_prim_equals_kruskal(m, r)
            components.add(sdg_msf(m, r).num_components)
        _assert_prim_equals_kruskal(m, RangeAssignment.constant(24, 0.0))
    assert max(components) > 1


def test_dense_msf_one_and_two_points():
    one = Metric.euclidean([[0.5]])
    _assert_prim_equals_kruskal(one, RangeAssignment((0.0,)))
    assert metric_mst(one) == Forest(n=1, edges=(), component=(0,))
    two = Metric.euclidean([[0.0], [0.25]])
    for radius in (0.0, 0.25):
        _assert_prim_equals_kruskal(two, RangeAssignment.constant(2, radius))


def test_dense_msf_equals_kruskal_on_tied_graphs():
    # Weights from {1, 2, 3}: ties between edges from different tree vertices
    # to one outside vertex are common, so the endpoint tie-break decides.
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]
        g = WeightedGraph(n=n, edges=tuple((u, v, float(rng.integers(1, 4))) for u, v in pairs))
        assert dense_msf(g.adjacency_matrix()) == kruskal_msf(g)


def test_cycle_property_c3():
    assert cycle_property_check(C3, kruskal_msf(C3)) is None


def test_cycle_property_tree_vacuous():
    g = WeightedGraph(n=4, edges=((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)))
    assert cycle_property_check(g, kruskal_msf(g)) is None


def test_cycle_property_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(4, 13))
        g = support.random_graph(n, int(rng.integers(n - 1, 2 * n)), rng)
        assert cycle_property_check(g, kruskal_msf(g)) is None


def test_cycle_property_cross_checked_by_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(4, 10))
        g = support.random_graph(n, n + 2, rng)
        forest_pairs = kruskal_msf(g).edge_pairs()
        weights = g.weight_map()
        for cycle in support.all_cycles(g):
            top = max(((u, v, weights[(u, v)]) for u, v in cycle), key=edge_key)
            assert (top[0], top[1]) not in forest_pairs


def test_forest_cycle_path_chord():
    f = Forest.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    cycle = forest_cycle(f, (0, 2, 2.0))
    assert {(u, v) for u, v, _ in cycle} == {(0, 1), (1, 2), (0, 2)}


def test_forest_cycle_star_chord():
    f = Forest.from_edges(5, [(0, i, 1.0) for i in range(1, 5)])
    cycle = forest_cycle(f, (1, 2, 2.0))
    assert {(u, v) for u, v, _ in cycle} == {(0, 1), (0, 2), (1, 2)}


def test_forest_cycle_matches_dfs_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = support.random_connected_graph(10, 0, rng)
        f = kruskal_msf(g)
        u, v = sorted(rng.choice(10, size=2, replace=False))
        if (u, v) in f.edge_pairs():
            continue
        cycle = {(a, b) for a, b, _ in forest_cycle(f, (int(u), int(v), 9.0))}
        oracle = set(support.dfs_tree_path(10, f.edges, int(u), int(v))) | {(int(u), int(v))}
        assert cycle == oracle


def test_forest_cycle_rejects_cross_component():
    f = Forest.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError):
        forest_cycle(f, (0, 2, 1.0))


def test_tree_parameters_chain_path():
    path = Forest.from_edges(5, [(i, i + 1, 1.0) for i in range(4)])
    params = tree_parameters(RootedTree(path, 0))
    assert params.degree == 2
    assert params.radius == 4.0
    assert params.depth == 4
    assert params.diameter == 4.0
    assert params.hop_diameter == 4
    assert params.sum_single == 10.0
    assert params.sum_pairwise == 20.0  # (n^3 - n) / 6 for the unit path
    assert params.sum_pairwise == (5**3 - 5) / 6


def test_tree_parameters_chain_star():
    star = Forest.from_edges(5, [(0, 1, 1.0)] + [(0, i, 2.0) for i in range(2, 5)])
    params = tree_parameters(RootedTree(star, 0))
    assert params.degree == 4
    assert params.radius == 2.0
    assert params.depth == 1
    assert params.diameter == 4.0
    assert params.hop_diameter == 2
    assert params.sum_single == 7.0
    assert params.sum_pairwise == support.pairwise_distance_sum(5, star.edges)


def test_tree_parameters_single_vertex():
    t = RootedTree(Forest.from_edges(1, []), 0)
    params = tree_parameters(t)
    assert params.degree == 0
    assert params.radius == 0.0
    assert params.depth == 0
    assert params.diameter == 0.0
    assert params.sum_pairwise == 0.0
    assert params.sum_single == 0.0


@given(seeds, st.integers(3, 30))
@settings(max_examples=25)
def test_sum_pairwise_matches_quadratic_scan(seed, n):
    rng = np.random.default_rng(seed)
    tree = kruskal_msf(support.random_connected_graph(n, 0, rng))
    assert sum_pairwise(tree) == support.pairwise_distance_sum(n, tree.edges)


def test_brute_force_min_degree_of_complete_metric():
    m = gen_random_euclidean(5, 2, 2.0, 77)
    best = brute_force_optimal_tree(complete_graph(m), "degree")
    assert tree_parameters(best).degree == 2


def test_brute_force_on_forced_path():
    g = WeightedGraph(n=4, edges=((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)))
    for objective in ("degree", "radius", "diameter", "sum_pairwise", "sum_single"):
        best = brute_force_optimal_tree(g, objective)
        assert best.tree.edge_pairs() == {(0, 1), (1, 2), (2, 3)}


def test_brute_force_chain_diameter_at_most_four():
    g = complete_graph(gen_chain_metric(6).metric)
    best = brute_force_optimal_tree(g, "diameter")
    assert tree_parameters(best).diameter <= 4.0


def test_brute_force_rejects_large_or_disconnected():
    m = gen_random_euclidean(9, 1, 2.0, 0)
    with pytest.raises(ValueError):
        brute_force_optimal_tree(complete_graph(m), "degree")
    with pytest.raises(ValueError):
        brute_force_optimal_tree(WeightedGraph(n=4, edges=((0, 1, 1.0),)), "degree")


@given(seeds, st.integers(2, 14), st.integers(0, 12))
@settings(max_examples=30)
def test_forest_invariant_edges_plus_components(seed, n, m_edges):
    rng = np.random.default_rng(seed)
    g = support.random_graph(n, m_edges, rng)
    f = kruskal_msf(g)
    assert len(f.edges) + f.num_components == n


def test_weighted_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(n=3, edges=((0, 0, 1.0),))
    with pytest.raises(ValueError):
        WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(ValueError):
        WeightedGraph(n=2, edges=((0, 2, 1.0),))
