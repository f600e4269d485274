import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdglab.disk import RangeAssignment, build_sdg, sdg_matrix, sdg_msf
from sdglab.graph import (
    Forest,
    UnionFind,
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
    """Whole forests, for the disk graph and the complete graph."""
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
    assert one.mst == Forest(n=1, edges=())
    two = Metric.euclidean([[0.0], [0.25]])
    for radius in (0.0, 0.25):
        _assert_prim_equals_kruskal(two, RangeAssignment.constant(2, radius))
    assert dense_msf(np.zeros((0, 0))) == Forest(n=0, edges=())
    assert dense_msf(np.array([[0.0, 3.0], [3.0, 0.0]])).edges == ((0, 1, 3.0),)


def _with_absent_edges(d, rng, frac):
    """A copy of weight matrix d with about frac of its pairs set to +inf."""
    d = np.array(d, dtype=float)
    n = len(d)
    cut = np.triu(rng.random((n, n)) < frac, 1)
    d[cut | cut.T] = np.inf
    return WeightedGraph(d)


def test_dense_msf_equals_kruskal_on_tied_graphs():
    # Weights from {1, 2, 3}: ties between edges from different tree vertices
    # to one outside vertex are common, so the endpoint tie-break decides.
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]
        g = WeightedGraph.from_edges(n, tuple((u, v, float(rng.integers(1, 4))) for u, v in pairs))
        assert dense_msf(g.matrix) == kruskal_msf(g)
    # The same weights and the all-tie star and chain metrics with many absent
    # edges: Prim restarts, and the weights its trees tie on recur after a
    # restart, so the tie-break must not carry over.
    rng = np.random.default_rng(31)
    graphs = []
    for _ in range(300):
        n = int(rng.integers(2, 25))
        w = rng.integers(1, 4, size=(n, n)).astype(float)
        np.fill_diagonal(w, 0.0)
        kept = float(rng.uniform(0.5, 2.5)) / n  # mean degree about 0.5 to 2.5
        graphs.append(_with_absent_edges(np.minimum(w, w.T), rng, 1 - kept))
    for n in (*range(3, 13), 16, 24, 32, 48, 64):
        for bundle in (gen_star_metric(n), gen_chain_metric(n)):
            for frac in (0.3, 0.6, 0.8):
                graphs.append(_with_absent_edges(bundle.space.matrix, rng, frac))
    spanning_restarts = 0
    for g in graphs:
        f = dense_msf(g.matrix)
        assert f == kruskal_msf(g)
        uf = UnionFind(g.n)
        for u, v, _ in f.edges:
            uf.union(u, v)
        by_root = {}
        for u, _, w in f.edges:
            by_root.setdefault(uf.find(u), set()).add(w)
        trees = list(by_root.values())
        spanning_restarts += any(a & b for i, a in enumerate(trees) for b in trees[i + 1 :])
    assert spanning_restarts > 100


def _assert_dense_equals_kruskal(d):
    g = WeightedGraph(np.array(d, dtype=float))
    assert dense_msf(g.matrix) == kruskal_msf(g)


@pytest.mark.parametrize("n", [2, 3, 17, 256, 1024])
def test_dense_msf_on_nearest_neighbour_chains(n):
    # Gaps shrink strictly from left to right, so each point's nearest neighbour
    # is the next point: the lightest edges chain 0 -> 1 -> ... -> n-1, end in
    # the mutual pair (n-2, n-1) and take about log2 n pointer-jumping rounds.
    # The gaps are dyadic, so every distance is exact.
    gaps = 1.0 + np.arange(n - 1, 0, -1) / 1024
    m = Metric.euclidean(np.concatenate(([0.0], np.cumsum(gaps)))[:, None], p=1.0)
    r = RangeAssignment.constant(n, 2.5)  # the disk graph keeps pairs 1 or 2 apart
    assert sdg_msf(m, r) == kruskal_msf(build_sdg(m, r))
    if n <= 256:
        assert m.mst == kruskal_msf(complete_graph(m))


def test_dense_msf_mutual_nearest_pairs_under_ties():
    # Every lightest edge is the first minimum of its row, so a vertex whose
    # lightest weight ties hooks to its smallest such neighbour. Here 1 and 2
    # hook to each other only through that rule, and 3 hooks to 0, not 2.
    d = np.full((4, 4), 2.0)
    np.fill_diagonal(d, 0.0)
    d[1, 2] = d[2, 1] = d[0, 3] = d[3, 0] = d[2, 3] = d[3, 2] = 1.0
    _assert_dense_equals_kruskal(d)
    # All weights equal: vertex 0 hooks to 1 and every other vertex to 0.
    for n in range(2, 9):
        d = np.ones((n, n))
        np.fill_diagonal(d, 0.0)
        _assert_dense_equals_kruskal(d)
    # Weights from {1, 2}, mostly 1, with absent edges: many mutual pairs, each
    # decided by the endpoint tie-break.
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(2, 16))
        w = np.where(rng.random((n, n)) < 0.8, 1.0, 2.0)
        np.fill_diagonal(w, 0.0)
        _assert_dense_equals_kruskal(_with_absent_edges(np.minimum(w, w.T), rng, rng.uniform(0, 0.7)).matrix)


def test_dense_msf_isolated_vertices_and_empty_graphs():
    for n in range(0, 6):
        d = np.full((n, n), np.inf)
        np.fill_diagonal(d, 0.0)
        f = dense_msf(d)
        assert f == kruskal_msf(WeightedGraph(d))
        assert f.edges == ()
    # All-+inf rows between connected parts: restarts at the isolated vertices.
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        w = rng.integers(1, 4, size=(n, n)).astype(float)
        w = np.minimum(w, w.T)
        lonely = rng.random(n) < 0.3
        w[lonely, :] = w[:, lonely] = np.inf
        np.fill_diagonal(w, 0.0)
        _assert_dense_equals_kruskal(_with_absent_edges(w, rng, rng.uniform(0, 0.8)).matrix)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_dense_msf_on_coarse_grids(p):
    # Integer coordinates make many pairs tie, so several outside vertices often
    # reach the tree's lightest weight at once, from several tree vertices.
    rng = np.random.default_rng(47)
    for n in (5, 16, 40, 64):
        for dim in (1, 2):
            cells = rng.choice(3 * n if dim == 1 else 16, size=(n * 3, dim))
            pts = np.unique(cells, axis=0)[:n]
            m = Metric.euclidean(rng.permutation(pts).astype(float), p=p)
            r = gen_random_ranges(m, "uniform", n)
            _assert_prim_equals_kruskal(m, r)


def _hub_with_pairs(n, metric):
    """A weight-1 path 0..h with n // 4 pairs (a, a + 1) of weight 1 hung off h,
    each a at weight 2 from h: every a ties at once, as Prim's next vertex,
    from the same source. With metric, the shortest-path metric of that graph;
    otherwise +inf elsewhere."""
    q = n // 4
    h = n - 2 * q - 1
    path, a = np.arange(h + 1), np.arange(h + 1, n, 2)
    d = np.full((n, n), np.inf)
    if metric:
        d[: h + 1, : h + 1] = np.abs(path[:, None] - path)
        d[np.ix_(path, a)] = (h - path)[:, None] + 2
        d[np.ix_(path, a + 1)] = (h - path)[:, None] + 3
        d[np.ix_(a, a)], d[np.ix_(a, a + 1)], d[np.ix_(a + 1, a + 1)] = 4.0, 5.0, 6.0
    else:
        d[path[:-1], path[1:]] = 1.0
        d[h, a] = 2.0
    d[a, a + 1] = 1.0
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("n", [5, 9, 64, 301, 1024])
def test_dense_msf_on_many_fragments_tied_to_one_vertex(n):
    # Every pair is its own fragment and all of them tie at weight 2, so each
    # choice weighs n // 4 candidates, whose sources were read at earlier ties.
    perm = np.random.default_rng(n).permutation(n)
    for metric in (False, True) if n <= 301 else (False,):
        d = _hub_with_pairs(n, metric)
        for m in (d, d[np.ix_(perm, perm)]):
            _assert_dense_equals_kruskal(m)


@pytest.mark.parametrize(
    "y, partner, kept, dropped",
    [(6, 2, (3, 6, 2.0), (5, 6, 2.0)), (2, 6, (2, 3, 2.0), (2, 5, 2.0))],
)
def test_dense_msf_rereads_a_vertex_that_ties_again(y, partner, kept, dropped):
    # Fragments {0,5} {1,partner} {3,4} {y,8} {7,9}. Prim takes (0,4) from the
    # tie {4, y, 9} at weight 2, then (partner,3) at 1.5; when y and 9 tie
    # again, y's least edge is the one to 3, a vertex joined between its two
    # ties and before the fragment joined last, not (5, y) as at its first
    # tie. The second case puts y below its new source.
    d = np.full((10, 10), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in ((0, 5, 1), (1, partner, 1), (3, 4, 1), (y, 8, 1), (7, 9, 1), (partner, 3, 1.5),
                    (0, 4, 2), (3, y, 2), (5, y, 2), (5, 9, 2)):
        d[u, v] = d[v, u] = w
    f = dense_msf(d)
    assert f == kruskal_msf(WeightedGraph(d))
    assert kept in f.edges and dropped not in f.edges


def test_dense_msf_memory_is_linear():
    m = gen_random_euclidean(1024, 2, 2.0, 7)
    disk = sdg_matrix(m.matrix, gen_random_ranges(m, "uniform", 8))
    assert np.isinf(disk).any()
    for d in (m.matrix, disk, _hub_with_pairs(1024, True), _hub_with_pairs(1024, False)):
        tracemalloc.start()
        try:
            dense_msf(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # one n x n int64 array would take 8 MiB


def test_is_msf_agrees_with_kruskal_on_tied_graphs_and_swaps():
    # Weights from {1, 2, 3}, so the endpoint tie-break decides many path maxima.
    rng = np.random.default_rng(37)
    # Radii from {0, 1, 2, 3}, so min(r_u, r_v) >= w ties often, and the disk
    # graph drops edges of the graph's MSF that a forest may still hold.
    radii_rng = np.random.default_rng(38)
    accepted = swaps = disk_accepted = disk_forests = 0
    for _ in range(250):
        n = int(rng.integers(2, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = WeightedGraph.from_edges(n, tuple((u, v, float(rng.integers(1, 4))) for u, v in pairs))
        everything = np.full(n, np.inf)
        msf = kruskal_msf(g)
        accepted += is_msf(g.matrix, everything, msf)
        tree = set(msf.edges)
        for out in msf.edges:
            for into in set(g.edges) - tree:
                f = Forest(n, tuple(sorted(tree - {out} | {into}, key=edge_key)))
                assert is_msf(g.matrix, everything, f) == (msf == f)
                swaps += 1
        radii = radii_rng.integers(0, 4, size=n).astype(float)
        disk_msf = kruskal_msf(build_sdg(g, RangeAssignment(radii)))
        disk_accepted += is_msf(g.matrix, radii, disk_msf)
        disk_tree = set(disk_msf.edges)
        candidates = [msf] + [
            Forest(n, tuple(sorted(disk_tree - {out} | {into}, key=edge_key)))
            for out in [None, *disk_tree]
            for into in set(g.edges) - disk_tree
        ]
        for f in candidates:
            assert is_msf(g.matrix, radii, f) == (disk_msf == f)
            disk_forests += 1
    assert accepted == 250 and swaps > 4000
    assert disk_accepted == 250 and disk_forests > 4000


_TIED = WeightedGraph.from_edges(5, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 2.0)))  # vertex 4 alone
_TIED_MSF = ((0, 1, 1.0), (0, 2, 1.0), (2, 3, 2.0))


@pytest.mark.parametrize(
    "n, edges",
    [
        (5, _TIED_MSF[::-1]),
        (5, ((1, 0, 1.0),) + _TIED_MSF[1:]),
        (5, _TIED_MSF[:2] + ((2, 3, 2.5),)),
        (5, _TIED_MSF[:2] + ((0, 3, 2.0),)),
        (5, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 2.0))),
        (5, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0))),
        (5, _TIED_MSF[:2]),
        (5, _TIED_MSF[:1] + _TIED_MSF),
        (6, _TIED_MSF),
    ],
    ids=[
        "unsorted", "flipped", "wrong-weight", "absent-edge",
        "cycle", "tie-lost", "cross-edge-dropped", "repeated-edge", "wrong-n",
    ],
)
def test_is_msf_rejects_what_kruskal_rejects(n, edges):
    msf = kruskal_msf(_TIED)
    assert msf == Forest(5, _TIED_MSF) and is_msf(_TIED.matrix, np.full(5, np.inf), msf)
    f = Forest(n, edges)
    assert msf != f and not is_msf(_TIED.matrix, np.full(5, np.inf), f)


def test_is_msf_rejects_an_infinite_tree_edge():
    # +inf marks an absent edge, so it equals the matrix entry of a missing pair.
    g = WeightedGraph.from_edges(2, ())
    f = Forest(2, ((0, 1, math.inf),))
    assert kruskal_msf(g) != f and not is_msf(g.matrix, np.full(2, np.inf), f)


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


@given(seeds, st.integers(2, 14), st.integers(0, 12))
@settings(max_examples=30)
def test_forest_invariant_edges_plus_components(seed, n, m_edges):
    rng = np.random.default_rng(seed)
    g = support.random_graph(n, m_edges, rng)
    f = kruskal_msf(g)
    uf = UnionFind(n)
    for u, v, _ in f.edges:
        uf.union(u, v)
    # A cycle edge would join nothing, leaving one more root than n - |edges|.
    assert len(f.edges) + len({uf.find(v) for v in range(n)}) == n


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
