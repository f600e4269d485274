import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdglab.disk import RangeAssignment, build_sdg, sdg_msf
from sdglab.graph import (
    Forest,
    WeightedGraph,
    complete_graph,
    dense_msf,
    edge_key,
    is_msf,
    kruskal_msf,
    tree_path,
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

C3 = WeightedGraph.from_edges(3, ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 1000.0)))


def test_kruskal_c3_mst():
    forest = kruskal_msf(C3)
    assert forest.edge_pairs() == {(0, 1), (0, 2)}
    assert forest.weight == 3.0


def test_kruskal_edgeless():
    forest = kruskal_msf(WeightedGraph.from_edges(4, ()))
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
    assert kruskal_msf(WeightedGraph.from_edges(9, tuple(perm))).edges == kruskal_msf(g).edges


def _assert_prim_equals_kruskal(m, r):
    """Whole forests, component labels included, for the disk graph and the complete graph."""
    assert sdg_msf(m, r) == kruskal_msf(build_sdg(m, r))
    assert m.mst == kruskal_msf(complete_graph(m))


@given(metric_range_pairs(max_n=40))
def test_dense_msf_equals_kruskal_random(pair):
    _assert_prim_equals_kruskal(*pair)


@pytest.mark.parametrize("n", [3, 4, 7, 20])
def test_dense_msf_equals_kruskal_all_ties(n):
    for bundle in (gen_star_metric(n), gen_chain_metric(n)):
        _assert_prim_equals_kruskal(bundle.space, bundle.ranges)


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
    assert one.mst == Forest(n=1, edges=(), component=(0,))
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
        g = WeightedGraph.from_edges(n, tuple((u, v, float(rng.integers(1, 4))) for u, v in pairs))
        assert dense_msf(g.matrix) == kruskal_msf(g)


def _forest(n, edges, component):
    """A Forest with any fields: object.__new__ skips `Forest.__post_init__`."""
    f = object.__new__(Forest)
    for name, value in (("n", n), ("edges", edges), ("component", component)):
        object.__setattr__(f, name, value)
    return f


def test_is_msf_agrees_with_kruskal_on_tied_graphs_and_swaps():
    # Weights from {1, 2, 3}, so the endpoint tie-break decides many path maxima.
    rng = np.random.default_rng(37)
    accepted = swaps = 0
    for _ in range(250):
        n = int(rng.integers(2, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = WeightedGraph.from_edges(n, tuple((u, v, float(rng.integers(1, 4))) for u, v in pairs))
        msf = kruskal_msf(g)
        accepted += is_msf(g.matrix, msf)
        tree = set(msf.edges)
        for out in msf.edges:
            for into in set(g.edges) - tree:
                f = _forest(n, tuple(sorted(tree - {out} | {into}, key=edge_key)), msf.component)
                assert is_msf(g.matrix, f) == (msf == f)
                swaps += 1
    assert accepted == 250 and swaps > 4000


_TIED = WeightedGraph.from_edges(5, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 2.0)))  # vertex 4 alone
_TIED_MSF = ((0, 1, 1.0), (0, 2, 1.0), (2, 3, 2.0))


@pytest.mark.parametrize(
    "n, edges, component",
    [
        (5, _TIED_MSF[::-1], (0, 0, 0, 0, 4)),
        (5, ((1, 0, 1.0),) + _TIED_MSF[1:], (0, 0, 0, 0, 4)),
        (5, _TIED_MSF, (0, 0, 0, 0, 0)),
        (5, _TIED_MSF, (1, 1, 1, 1, 4)),
        (5, _TIED_MSF[:2] + ((2, 3, 2.5),), (0, 0, 0, 0, 4)),
        (5, _TIED_MSF[:2] + ((0, 3, 2.0),), (0, 0, 0, 0, 4)),
        (5, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 2.0)), (0, 0, 0, 0, 4)),
        (5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0)), (0, 0, 0, 0, 4)),
        (5, _TIED_MSF[:2], (0, 0, 0, 3, 4)),
        (5, _TIED_MSF[:1] + _TIED_MSF, (0, 0, 0, 0, 4)),
        (6, _TIED_MSF, (0, 0, 0, 0, 4)),
    ],
    ids=[
        "unsorted", "flipped", "label-merged", "label-not-min", "wrong-weight", "absent-edge",
        "cycle", "tie-lost", "cross-edge-dropped", "repeated-edge", "wrong-n",
    ],
)
def test_is_msf_rejects_what_kruskal_rejects(n, edges, component):
    msf = kruskal_msf(_TIED)
    assert msf == _forest(5, _TIED_MSF, (0, 0, 0, 0, 4)) and is_msf(_TIED.matrix, msf)
    f = _forest(n, edges, component)
    assert msf != f and not is_msf(_TIED.matrix, f)


def test_is_msf_rejects_an_infinite_tree_edge():
    # +inf marks an absent edge, so it equals the matrix entry of a missing pair.
    g = WeightedGraph.from_edges(2, ())
    f = _forest(2, ((0, 1, math.inf),), (0, 0))
    assert kruskal_msf(g) != f and not is_msf(g.matrix, f)


def test_cycle_property_c3():
    assert support.cycle_property_check(C3, kruskal_msf(C3)) is None


def test_cycle_property_tree_vacuous():
    g = WeightedGraph.from_edges(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)))
    assert support.cycle_property_check(g, kruskal_msf(g)) is None


def test_cycle_property_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(4, 13))
        g = support.random_graph(n, int(rng.integers(n - 1, 2 * n)), rng)
        assert support.cycle_property_check(g, kruskal_msf(g)) is None


def test_cycle_property_cross_checked_by_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(4, 10))
        g = support.random_graph(n, n + 2, rng)
        forest_pairs = kruskal_msf(g).edge_pairs()
        weights = {(u, v): w for u, v, w in g.edges}
        for cycle in support.all_cycles(g):
            top = max(((u, v, weights[(u, v)]) for u, v in cycle), key=edge_key)
            assert (top[0], top[1]) not in forest_pairs


def test_forest_cycle_path_chord():
    f = kruskal_msf(WeightedGraph.from_edges(3, ((0, 1, 1.0), (1, 2, 1.0))))
    path = tree_path(f.adjacency(), 0, 2)
    assert {(u, v) for u, v, _ in path} == {(0, 1), (1, 2)}


def test_forest_cycle_star_chord():
    f = kruskal_msf(WeightedGraph.from_edges(5, tuple((0, i, 1.0) for i in range(1, 5))))
    path = tree_path(f.adjacency(), 1, 2)
    assert {(u, v) for u, v, _ in path} == {(0, 1), (0, 2)}


def test_forest_cycle_matches_dfs_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = support.random_connected_graph(10, 0, rng)
        f = kruskal_msf(g)
        u, v = sorted(rng.choice(10, size=2, replace=False))
        if (u, v) in f.edge_pairs():
            continue
        path = {(a, b) for a, b, _ in tree_path(f.adjacency(), int(u), int(v))}
        assert path == set(support.dfs_tree_path(10, f.edges, int(u), int(v)))


def test_forest_cycle_rejects_cross_component():
    f = kruskal_msf(WeightedGraph.from_edges(4, ((0, 1, 1.0), (2, 3, 1.0))))
    assert tree_path(f.adjacency(), 0, 2) is None


def test_tree_parameters_chain_path():
    params = gen_chain_metric(5).reference["sdg_params"]
    assert params["degree"] == 2
    assert params["radius"] == 4.0
    assert params["depth"] == 4
    assert params["diameter"] == 4.0
    assert params["hop_diameter"] == 4
    assert params["sum_single"] == 10.0
    assert params["sum_pairwise"] == 20.0  # (n^3 - n) / 6 for the unit path
    assert params["sum_pairwise"] == (5**3 - 5) / 6


def test_tree_parameters_chain_star():
    params = gen_chain_metric(5).reference["star_params"]
    assert params["degree"] == 4
    assert params["radius"] == 2.0
    assert params["depth"] == 1
    assert params["diameter"] == 4.0
    assert params["hop_diameter"] == 2
    assert params["sum_single"] == 7.0
    star_edges = [(0, 1, 1.0)] + [(0, i, 2.0) for i in range(2, 5)]
    assert params["sum_pairwise"] == support.pairwise_distance_sum(5, star_edges)


@given(seeds, st.integers(2, 14), st.integers(0, 12))
@settings(max_examples=30)
def test_forest_invariant_edges_plus_components(seed, n, m_edges):
    rng = np.random.default_rng(seed)
    g = support.random_graph(n, m_edges, rng)
    f = kruskal_msf(g)
    assert len(f.edges) + f.num_components == n


def test_weighted_graph_validation():
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        WeightedGraph.from_edges(3, ((0, 0, 1.0),))
    with pytest.raises(ValueError, match=r"duplicate edge \(0,1\)"):
        WeightedGraph.from_edges(3, ((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(ValueError, match="out of range for n=2"):
        WeightedGraph.from_edges(2, ((0, 2, 1.0),))
    with pytest.raises(ValueError, match="graph n must be >= 0, got -1"):
        WeightedGraph.from_edges(-1, ())


@pytest.mark.parametrize(
    "edges",
    [((0, 1, math.inf), (0, 1, 1.0)), ((1, 2, math.nan), (0, 0, 1.0)), ((0, 1, -math.inf), (0, 5, 1.0))],
    ids=["then-duplicate", "then-self-loop", "then-out-of-range"],
)
def test_from_edges_reports_the_first_bad_edge(edges):
    with pytest.raises(ValueError, match="non-finite weight"):
        WeightedGraph.from_edges(3, edges)


@given(seeds, st.integers(0, 12), st.integers(0, 30))
@settings(max_examples=60)
def test_edge_view_is_sorted_canonical_input(seed, n, m_edges):
    # Weights in {1, 2, 3}, so the endpoint tie-break of edge_key decides most of the order.
    rng = np.random.default_rng(seed)
    canonical = [(u, v, float(math.ceil(w))) for u, v, w in support.random_graph(n, m_edges, rng).edges]
    shuffled = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in canonical]
    rng.shuffle(shuffled)
    edges = WeightedGraph.from_edges(n, shuffled).edges
    assert edges == tuple(sorted(canonical, key=edge_key))
    assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in edges)


def test_weighted_graph_stores_only_its_matrix():
    assert [f.name for f in dataclasses.fields(WeightedGraph)] == ["matrix"]
    assert "n" not in {f.name for f in dataclasses.fields(Metric)}
    g = WeightedGraph.from_edges(0, ())
    assert g.n == 0 and g.edges == () and g.weight == 0.0


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_weighted_graph_rejects_non_finite_weights(w):
    # +inf marks an absent edge in a graph's matrix; such an edge would vanish silently.
    with pytest.raises(ValueError, match="non-finite weight"):
        WeightedGraph.from_edges(3, ((0, 1, 1.0), (1, 2, w)))


def test_spaces_share_matrix_mst_and_is_metric():
    g = WeightedGraph.from_edges(4, ((0, 1, 1.5), (1, 2, 2.0), (0, 2, 1.0)))
    m = Metric.euclidean([[0.0], [1.0], [3.0]])
    for space, graph, is_metric in ((m, complete_graph(m), True), (g, g, False)):
        assert space.matrix is space.matrix
        with pytest.raises(ValueError, match="read-only"):
            space.matrix[0, 1] = 0.5
        assert space.mst is space.mst
        assert space.mst == kruskal_msf(graph)
        assert space.is_metric is is_metric
    d = g.matrix
    assert d[0, 1] == d[1, 0] == 1.5 and d[1, 2] == 2.0
    assert d[0, 3] == d[3, 0] == math.inf and np.all(np.diagonal(d) == 0.0)
    assert complete_graph(m).matrix.tolist() == m.matrix.tolist()
    assert g.mst.num_components == 2
