import dataclasses
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdglab import graph
from sdglab.disk import RangeAssignment, build_sdg, sdg_msf
from sdglab.graph import (
    CHECK_LIST_CUTOFF,
    PRIM_LIST_CUTOFF,
    Forest,
    UnionFind,
    WeightedGraph,
    complete_graph,
    dense_msf,
    edge_key,
    is_msf,
    kruskal_msf,
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
    """Whole forests, for the disk graph and the complete graph: through
    `sdg_msf` and `Space.mst`, then by `dense_msf` on each of its paths, on
    the metric's matrix with and without the radii, for the disk graph from
    scratch and seeded with the MST edges the radii keep."""
    msf, mst = kruskal_msf(build_sdg(m, r)), kruskal_msf(complete_graph(m))
    assert sdg_msf(m, r) == msf
    assert m.mst == mst
    kept = [e for e in mst.edges if min(r[e[0]], r[e[1]]) >= e[2]]
    for _ in support.kernel_paths():
        assert dense_msf(m.matrix, radii=r.radii) == msf == dense_msf(m.matrix, kept, radii=r.radii)
        assert dense_msf(m.matrix) == mst


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
    for _ in support.kernel_paths():
        assert dense_msf(np.zeros((0, 0))) == Forest(n=0, edges=())
        assert dense_msf(np.array([[0.0, 3.0], [3.0, 0.0]])).edges == ((0, 1, 3.0),)


def _with_absent_edges(d, rng, frac):
    """A copy of weight matrix d with about frac of its pairs set to +inf."""
    d = np.array(d, dtype=float)
    n = len(d)
    cut = np.triu(rng.random((n, n)) < frac, 1)
    d[cut | cut.T] = np.inf
    return WeightedGraph(d)


@lru_cache(maxsize=1)
def _tied_graphs() -> tuple[tuple[WeightedGraph, ...], tuple[WeightedGraph, ...]]:
    """Small graphs with weights from {1, 2, 3}, then sparse ones on which
    Prim restarts: the same weights, and the all-tie star and chain metrics
    with many absent edges."""
    rng = np.random.default_rng(29)
    small = []
    for _ in range(200):
        n = int(rng.integers(1, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]
        small.append(WeightedGraph.from_edges(n, tuple((u, v, float(rng.integers(1, 4))) for u, v in pairs)))
    rng = np.random.default_rng(31)
    sparse = []
    for _ in range(300):
        n = int(rng.integers(2, 25))
        w = rng.integers(1, 4, size=(n, n)).astype(float)
        np.fill_diagonal(w, 0.0)
        kept = float(rng.uniform(0.5, 2.5)) / n  # mean degree about 0.5 to 2.5
        sparse.append(_with_absent_edges(np.minimum(w, w.T), rng, 1 - kept))
    for n in (*range(3, 13), 16, 24, 32, 48, 64):
        for bundle in (gen_star_metric(n), gen_chain_metric(n)):
            for frac in (0.3, 0.6, 0.8):
                sparse.append(_with_absent_edges(bundle.space.matrix, rng, frac))
    return tuple(small), tuple(sparse)


@support.on_both_kernel_paths
def test_dense_msf_equals_kruskal_on_tied_graphs():
    # Weights from {1, 2, 3}: ties between edges from different tree vertices
    # to one outside vertex are common, so the endpoint tie-break decides.
    small, sparse = _tied_graphs()
    for g in small:
        assert dense_msf(g.matrix) == kruskal_msf(g)
    # On the sparse graphs Prim restarts, and the weights its trees tie on
    # recur after a restart, so the tie-break must not carry over.
    spanning_restarts = 0
    for g in sparse:
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


@support.on_both_kernel_paths
def test_dense_msf_with_known_edges_equals_kruskal_on_tied_graphs():
    # Known MSF edges merge the nearest-neighbour fragments before Prim: none,
    # all of them (Prim only restarts), and random subsets in random order,
    # some of them hooks already.
    rng = np.random.default_rng(37)
    small, sparse = _tied_graphs()
    merged = 0
    for g in small + sparse:
        f = kruskal_msf(g)
        some = [e for e in f.edges if rng.random() < 0.5]
        most = [f.edges[i] for i in rng.permutation(len(f.edges)) if rng.random() < 0.8]
        for known in ((), f.edges, tuple(some), tuple(most)):
            assert dense_msf(g.matrix, known) == f
        merged += len(some) > 0
    assert merged > 300


def _assert_dense_equals_kruskal(d):
    g = WeightedGraph(np.array(d, dtype=float))
    assert dense_msf(g.matrix) == kruskal_msf(g)


@pytest.mark.parametrize("n", [2, 3, 17, 256, 1024])
@support.on_both_kernel_paths
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


@support.on_both_kernel_paths
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


@support.on_both_kernel_paths
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


def _largest_fragment(n, known):
    """The vertices of the largest tree that the edges `known` form."""
    uf = UnionFind(n)
    for u, v, _ in known:
        uf.union(u, v)
    roots = [uf.find(v) for v in range(n)]
    top = max(set(roots), key=roots.count)
    return {v for v in range(n) if roots[v] == top}


def _subtree(f, start, size):
    """The edges of f that a breadth-first search from start takes, in f's
    order, until the tree holds `size` vertices."""
    adj, seen, queue, taken = f.adjacency(), {start}, [start], set()
    while queue and len(seen) < size:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if v not in seen and len(seen) < size:
                seen.add(v)
                queue.append(v)
                taken.add((min(u, v), max(u, v)))
    return tuple(e for e in f.edges if (e[0], e[1]) in taken)


def _pair_matrix(n):
    """Weight 1 within the pairs (2i, 2i + 1) and 2 between any two others: a
    metric whose hooks are the n / 2 mutual pairs, after which every vertex
    outside Prim's tree ties at weight 2 at every step."""
    d = np.full((n, n), 2.0)
    even = np.arange(0, n - 1, 2)
    d[even, even + 1] = d[even + 1, even] = 1.0
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("n", [256, 512])
@support.on_both_kernel_paths
def test_dense_msf_seeded_from_each_size_of_largest_fragment(n):
    # Known edges of the disk graph's MSF, whose largest tree L reads no row:
    # all but one vertex, half of them, one edge. On the pair matrix every
    # leaving edge of a pair ties at weight 2; under uniform radii on the
    # plane, the vertices next to L hook into it.
    rng = np.random.default_rng(n)
    m = gen_random_euclidean(n, 2, 2.0, n)
    cases = [
        (_pair_matrix(n), np.full(n, 2.0)),
        (_pair_matrix(n), rng.choice([1.0, 2.0], size=n, p=[0.2, 0.8])),
        (m.matrix, np.array(gen_random_ranges(m, "biased", n).radii)),
        (m.matrix, np.array(gen_random_ranges(m, "uniform", n).radii)),
    ]
    hooked_into = 0
    for d, radii in cases:
        f = kruskal_msf(build_sdg(WeightedGraph(d), RangeAssignment(radii)))
        degree = np.bincount(np.array([e[:2] for e in f.edges]).ravel(), minlength=n)
        leaf = int(np.flatnonzero(degree == 1)[0])
        start = f.edges[0][0]
        for known, size in (
            (tuple(e for e in f.edges if leaf not in e[:2]), None),
            (_subtree(f, start, n // 2), n // 2),
            (f.edges[:1], 2),
        ):
            inside = _largest_fragment(n, known)
            assert size is None or len(inside) == size
            assert dense_msf(d, known, radii=radii) == f
            assert dense_msf(d, known[::-1], radii=radii) == f
            disk = np.where(np.minimum(radii[:, None], radii) >= d, d, np.inf)
            np.fill_diagonal(disk, np.inf)
            outside = [v for v in range(n) if v not in inside and disk[v].min() < np.inf]
            hooked_into += any(int(disk[v].argmin()) in inside for v in outside)
    assert hooked_into >= 6


@pytest.mark.parametrize("n, side", [(64, 16), (200, 48)])
def test_dense_msf_seeded_on_tied_and_grid_instances(n, side):
    # Star and chain metrics under radii from {0.5, 1, 2}, which drop some of
    # their weight-1 MST edges and keep weight-2 pairs among the vertices of
    # radius 2, and integer grids under p = 1 and p = inf with uniform radii,
    # sparse enough that MST edges outweigh the least radius: the kept MST
    # edges are the first components, through `sdg_msf` and `dense_msf`.
    rng = np.random.default_rng(n + 1)
    seeded = 0
    for bundle in (gen_star_metric(n), gen_chain_metric(n)):
        radii = rng.choice([0.5, 1.0, 2.0], size=n, p=[0.1, 0.3, 0.6])
        _assert_prim_equals_kruskal(bundle.space, RangeAssignment(radii))
        kept = [e for e in bundle.space.mst.edges if min(radii[e[0]], radii[e[1]]) >= e[2]]
        seeded += 2 < len(_largest_fragment(n, kept)) < n
    for p in (1.0, math.inf):
        cells = rng.choice(side, size=(3 * n, 2))
        m = Metric.euclidean(rng.permutation(np.unique(cells, axis=0)[:n]).astype(float), p=p)
        r = gen_random_ranges(m, "uniform", n)
        _assert_prim_equals_kruskal(m, r)
        kept = [e for e in m.mst.edges if min(r[e[0]], r[e[1]]) >= e[2]]
        seeded += 2 < len(_largest_fragment(n, kept)) < n
    assert seeded >= 3


@pytest.mark.parametrize("n", [200, 400])
def test_dense_msf_boruvka_round_on_tied_graphs(n):
    # Integer weights up to 3 or 63 with absent edges, and radii up to the
    # largest weight: a component's members often tie on their least leaving
    # weight, and many rows have no disk-graph edge out of their component,
    # so their components retire. Known edges from a tree away from vertex 0
    # keep it outside L. Every forest must equal Kruskal's.
    rng = np.random.default_rng(n + 3)
    for top, frac in ((3, 0.0), (3, 0.5), (63, 0.0), (63, 0.5), (63, 0.9)):
        w = rng.integers(1, top + 1, size=(n, n)).astype(float)
        np.fill_diagonal(w, 0.0)
        g = _with_absent_edges(np.minimum(w, w.T), rng, frac)
        assert dense_msf(g.matrix) == kruskal_msf(g)
        for radii in (rng.integers(0, top + 1, size=n).astype(float), np.full(n, float(top))):
            f = kruskal_msf(build_sdg(g, RangeAssignment(radii)))
            far = max(range(n), key=lambda v: (g.matrix[0, v], v))
            for known in ((), _subtree(f, far, n // 4), f.edges[1::3]):
                assert dense_msf(g.matrix, known, radii=radii) == f


@support.on_both_kernel_paths
def test_dense_msf_puts_back_a_row_that_runs_out():
    # Vertex 5 hooks into L = {1, 2, 3}, the tree of the known edges, in the
    # first pass, and has one more disk-graph edge, (0, 5) of weight 2, the
    # only one to F = {0, 6, 7, 8}, which forms in that pass; the other 101
    # vertices are isolated and retire in it. Then 5's recorded edge lies
    # inside its component, so its row is read again; and F, of four
    # vertices as L is now, takes its place as the largest (it has the
    # smaller label), so the rows of 1, 2 and 3, never read, are read too.
    # 5's row finds (0, 5).
    n = 109
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in ((1, 2, 1.0), (2, 3, 1.0), (3, 5, 1.0), (0, 5, 2.0), (0, 6, 1.0), (6, 7, 1.0), (7, 8, 1.0),
                    (0, 8, 2.0), (6, 8, 2.0)):
        d[u, v] = d[v, u] = w
    radii = np.full(n, 10.0)
    f = kruskal_msf(WeightedGraph(d))
    assert (0, 5, 2.0) in f.edges
    assert dense_msf(d, ((1, 2, 1.0), (2, 3, 1.0)), radii=radii) == f


@support.on_both_kernel_paths
def test_dense_msf_breaks_a_components_ties_by_endpoints_and_retires_the_isolated():
    # (a) Weight-1 edges make C = {1, 6} and D = {3, 9}, and the only edges
    # between them, (1, 9) and (3, 6), both weigh 2 and lie in different
    # rows of each. The total order takes (1, 9). Choosing by row order, D
    # would take (3, 6) while C takes (1, 9), closing a cycle; choosing by
    # max endpoint, both would take (3, 6). A weight-1 path on 10..19, the
    # largest component, meets D at weight 3.
    # (b) The pair {4, 5} has no edge out: it retires in the pass after it
    # forms, in which C and D still merge, a pass before they meet the path;
    # 0, 2, 7 and 8 are isolated. Each runs from scratch and with the path
    # known.
    n = 20
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    path = [(u, u + 1, 1.0) for u in range(10, n - 1)]
    for u, v, w in ((1, 6, 1.0), (3, 9, 1.0), (1, 9, 2.0), (3, 6, 2.0), (4, 5, 1.0), (9, 10, 3.0), *path):
        d[u, v] = d[v, u] = w
    f = kruskal_msf(WeightedGraph(d))
    assert (1, 9, 2.0) in f.edges and (3, 6, 2.0) not in f.edges and (4, 5, 1.0) in f.edges
    assert f.num_components == 6
    for known in ((), path, path[::-1]):
        assert dense_msf(d, known) == f
        assert dense_msf(d, known, radii=np.full(n, 3.0)) == f


def test_mask_disk_cuts_what_either_radius_cuts():
    # Entries on a grid of quarters, some +inf, against radii equal to an
    # entry (kept: d <= r), just below one (cut), zero, or +inf; in a block
    # of 70 rows, more than one chunk of MASK_ENTRIES, so several chunks and
    # a partial last one are masked, as in a block of `dense_msf`.
    # The plain test (r_u < d) | (r_v < d) is the oracle.
    rng = np.random.default_rng(61)
    rows, n = 70, 300
    d = rng.integers(1, 9, size=(rows, n)) / 4
    d[rng.random((rows, n)) < 0.1] = np.inf
    grid = np.arange(1, 9) / 4
    choices = np.concatenate([grid, np.nextafter(grid, 0), [0.0, np.inf]])
    r_rows, r = rng.choice(choices, size=rows), rng.choice(choices, size=n)
    expected = np.where((r_rows[:, None] < d) | (r < d), np.inf, d)
    block = d.copy()
    graph._mask_disk(block, r_rows, r)
    assert np.array_equal(block, expected)
    low = np.minimum(r_rows[:, None], r)
    assert ((low == d) & (block == d)).sum() > 100  # a radius equal to the distance keeps it
    assert ((low == np.nextafter(d, 0)) & np.isinf(block)).sum() > 100  # one ulp below cuts it
    assert (np.isinf(d) & np.isinf(low)).any()
    assert rows * n > graph.MASK_ENTRIES and rows % (graph.MASK_ENTRIES // n)


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
@support.on_both_kernel_paths
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
@support.on_both_kernel_paths
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


def test_dense_msf_takes_a_tie_from_the_fragment_joined_last():
    # Above the list cutoff, the first pass forms {0,5} {1,2} {3,4} {6,10}
    # {8,11} {7,9} and a weight-1 path on the rest, the largest component,
    # joined by (9, 12) at weight 3 in the last pass. In the second, row 8
    # ties (1,8) with (5,8) at weight 2 and its first minimum, column 1,
    # takes (1,8); {0,5} ties (0,4), (5,8) and (5,9) across its two rows and
    # takes (0,4); {1,2} and {3,4} both take (2,3) at 1.5, and 6 finds (2,6).
    n = PRIM_LIST_CUTOFF + 16
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in ((0, 5, 1), (1, 2, 1), (3, 4, 1), (6, 10, 1), (8, 11, 1), (7, 9, 1), (2, 3, 1.5),
                    (0, 4, 2), (1, 8, 2), (2, 6, 2), (5, 8, 2), (5, 9, 2), (9, 12, 3)):
        d[u, v] = d[v, u] = w
    for u in range(12, n - 1):
        d[u, u + 1] = d[u + 1, u] = 1.0
    f = dense_msf(d)
    assert f == kruskal_msf(WeightedGraph(d))
    assert (1, 8, 2.0) in f.edges and (5, 8, 2.0) not in f.edges


@pytest.mark.parametrize("entries", [1, 3, 7])
def test_dense_msf_tie_reads_across_chunk_boundaries(entries, monkeypatch):
    # With mask chunks of 1, 3 or 7 entries, every chunk of `_mask_disk` is
    # one row, so the mask runs row by row through each block. The inputs tie
    # often, so the first minimum of each row and the (lo, hi) order among a
    # component's rows decide: the pair matrix ties every leaving edge of a
    # pair at weight 2, the hub ties n // 4 pairs at once, and integer weights
    # up to 3 or 63 tie on most rows. Each runs plain, under radii that cut
    # some edges, and with every third MSF edge known.
    monkeypatch.setattr(graph, "MASK_ENTRIES", entries)
    rng = np.random.default_rng(entries)
    inputs = [_pair_matrix(128), _hub_with_pairs(301, False), _hub_with_pairs(301, True)]
    for top in (3, 63):
        w = rng.integers(1, top + 1, size=(200, 200)).astype(float)
        np.fill_diagonal(w, 0.0)
        inputs.append(np.minimum(w, w.T))
    for d in inputs:
        g = WeightedGraph(d)
        n, weights = g.n, np.unique(d[np.isfinite(d) & (d > 0)])
        for radii in (None, np.where(rng.random(n) < 0.2, weights[0], weights[-1])):
            f = kruskal_msf(g if radii is None else build_sdg(g, RangeAssignment(radii)))
            assert dense_msf(d, radii=radii) == f
            assert dense_msf(d, f.edges[::3], radii=radii) == f


def _traced_peak(build):
    """build()'s result and the most `tracemalloc` saw allocated while it ran."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_msf_memory_is_linear():
    m = gen_random_euclidean(1024, 2, 2.0, 7)
    r = gen_random_ranges(m, "uniform", 8)
    disk = build_sdg(m, r).matrix
    assert np.isinf(disk).any()
    for d in (m.matrix, disk, _hub_with_pairs(1024, True), _hub_with_pairs(1024, False)):
        _, peak = _traced_peak(lambda: dense_msf(d))
        assert peak < 2 * 2**20  # one n x n int64 array would take 8 MiB
    # With radii it masks each block as it reads it and keeps no copy of the
    # disk graph's rows, which would take 8 MiB less one row: the plain bound
    # holds.
    f, peak = _traced_peak(lambda: dense_msf(m.matrix, radii=r.radii))
    assert f == dense_msf(disk)
    assert peak < 2 * 2**20


@support.on_both_kernel_paths
def test_kernels_at_every_n_to_one_past_each_cutoff():
    # Weights from {1, 2, 3} with absent edges, at every n that either cutoff
    # separates; the cutoffs are the module's own, whichever path runs.
    rng, masks = np.random.default_rng(53), np.random.default_rng(59)
    for n in range(1, max(PRIM_LIST_CUTOFF, CHECK_LIST_CUTOFF) + 2):
        w = rng.integers(1, 4, size=(n, n)).astype(float)
        np.fill_diagonal(w, 0.0)
        g = _with_absent_edges(np.minimum(w, w.T), rng, 0.3)
        f = kruskal_msf(g)
        known = tuple(e for e in f.edges if rng.random() < 0.5)
        assert dense_msf(g.matrix) == f == dense_msf(g.matrix, known)
        everything = np.full(n, np.inf)
        assert is_msf(g.matrix, everything, f)
        assert not f.edges or not is_msf(g.matrix, everything, Forest(n, f.edges[1:]))
        radii = rng.integers(0, 4, size=n).astype(float)
        disk = kruskal_msf(build_sdg(g, RangeAssignment(radii)))
        assert is_msf(g.matrix, radii, disk) and (disk == f or not is_msf(g.matrix, radii, f))
        # The builder on disk graphs of the same matrix: radii from {0, .., 3}
        # on its tied weights; each vertex's heaviest MSF edge, which keeps the
        # whole MSF, some of its edges only by d(u, v) == min(r_u, r_v); and
        # radii below every weight, which cut every edge.
        some = tuple(e for e in disk.edges if masks.random() < 0.5)
        assert dense_msf(g.matrix, radii=radii) == disk == dense_msf(g.matrix, some, radii=radii)
        assert dense_msf(g.matrix, radii=f.heaviest_incident()) == f
        assert dense_msf(g.matrix, radii=masks.random(n)) == Forest(n, ())


def test_kernels_take_their_list_paths_up_to_their_cutoffs(monkeypatch):
    taken = []

    def counted(name):
        real = getattr(graph, name)

        def call(rows, *rest):
            taken.append((name, len(rows)))
            return real(rows, *rest)

        return call

    for name in ("_prim_on_lists", "_kruskal_check_on_lists"):
        monkeypatch.setattr(graph, name, counted(name))
    expected = []
    for n in sorted({PRIM_LIST_CUTOFF, PRIM_LIST_CUTOFF + 1, CHECK_LIST_CUTOFF, CHECK_LIST_CUTOFF + 1}):
        m = gen_random_euclidean(n, 2, 2.0, n)
        assert m.mst == kruskal_msf(complete_graph(m))
        assert is_msf(m.matrix, np.full(n, np.inf), m.mst)
        expected += [("_prim_on_lists", n)] * (n <= PRIM_LIST_CUTOFF)
        expected += [("_kruskal_check_on_lists", n)] * (n <= CHECK_LIST_CUTOFF)
    assert taken == expected


@support.on_both_kernel_paths
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
@support.on_both_kernel_paths
def test_is_msf_rejects_what_kruskal_rejects(n, edges):
    msf = kruskal_msf(_TIED)
    assert msf == Forest(5, _TIED_MSF) and is_msf(_TIED.matrix, np.full(5, np.inf), msf)
    f = Forest(n, edges)
    assert msf != f and not is_msf(_TIED.matrix, np.full(5, np.inf), f)


@support.on_both_kernel_paths
def test_is_msf_rejects_an_infinite_tree_edge():
    # +inf marks an absent edge, so it equals the matrix entry of a missing pair.
    g = WeightedGraph.from_edges(2, ())
    f = Forest(2, ((0, 1, math.inf),))
    assert kruskal_msf(g) != f and not is_msf(g.matrix, np.full(2, np.inf), f)


@pytest.mark.parametrize("radius", [math.inf, 9.0])
@pytest.mark.parametrize(
    "trees, cross",
    [
        (((0, 1, 1.0), (2, 3, 1.0), (3, 4, 2.0)), (1, 2)),
        (((0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0)), (2, 3)),
    ],
    ids=["row-outside-largest", "row-inside-largest"],
)
@support.on_both_kernel_paths
def test_is_msf_rejects_a_heavy_edge_between_two_components(trees, cross, radius):
    # The edge between the two trees is heavier than every tree edge, so a cap
    # on either component would drop it. The lower endpoint of the pair lies
    # outside the largest component in one layout and inside it in the other.
    g = WeightedGraph.from_edges(5, trees + (cross + (5.0,),))
    f = Forest(5, tuple(sorted(trees, key=edge_key)))
    assert kruskal_msf(g) != f and not is_msf(g.matrix, np.full(5, radius), f)


@support.on_both_kernel_paths
def test_is_msf_accepts_absent_pairs_between_components():
    # Two trees on interleaved vertices and no pair between them: unbounded
    # radii reach every +inf entry across, and none of them is an edge.
    g = WeightedGraph.from_edges(6, ((0, 2, 1.0), (2, 4, 3.0), (0, 4, 3.0), (1, 3, 2.0), (3, 5, 2.0)))
    f = kruskal_msf(g)
    assert f.num_components == 2 and is_msf(g.matrix, np.full(6, np.inf), f)


@pytest.mark.parametrize("n", [3, 4, 9, 33])
@support.on_both_kernel_paths
def test_is_msf_rejects_a_tied_pair_below_its_path_maximum(n):
    # Every pair weighs 1, as does every radius, so Kruskal keeps the star at
    # vertex 0 and every other spanning tree has some pair (u, v) that ties its
    # path maximum at a smaller code: on the path 0-1-...-(n-1), pair (0, 2).
    g = WeightedGraph(np.ones((n, n)) - np.eye(n))
    radii = np.ones(n)
    star = kruskal_msf(g)
    assert star.edges == tuple((0, v, 1.0) for v in range(1, n)) and is_msf(g.matrix, radii, star)
    rng = np.random.default_rng(n)
    trees = [tuple((v, v + 1, 1.0) for v in range(n - 1))]
    for _ in range(20):  # random trees: each vertex hangs below an earlier one of a random order
        order = rng.permutation(n).tolist()
        pairs = [sorted((order[int(rng.integers(0, i))], order[i])) for i in range(1, n)]
        trees.append(tuple(sorted(((u, v, 1.0) for u, v in pairs), key=edge_key)))
    for edges in trees:
        f = Forest(n, edges)
        assert is_msf(g.matrix, radii, f) == (f == star)


@support.on_both_kernel_paths
def test_is_msf_agrees_with_kruskal_on_tied_forests_of_many_components():
    # Up to 64 vertices in 2-5 groups, weights from {1, 2, 3} inside a group.
    # Pairs across groups are absent under unbounded radii, and weigh 4 under
    # radii from {1, 2, 3}, which drop them; the disk graph's MSF then has
    # several trees, and the candidates drop, swap or add one edge of it.
    rng = np.random.default_rng(43)
    multi = forests = 0
    for trial in range(80):
        n = int(rng.integers(8, 65))
        group = rng.integers(0, int(rng.integers(2, 6)), size=n)
        w = rng.integers(1, 4, size=(n, n)).astype(float)
        present = np.triu(rng.random((n, n)) < 0.4, 1)
        unbounded = trial % 2 == 0
        d = np.where(group[:, None] == group, w, np.inf if unbounded else 4.0)
        d = np.where(present | present.T, np.minimum(d, d.T), np.inf)
        np.fill_diagonal(d, 0.0)
        g = WeightedGraph(d)
        if unbounded:
            radii, disk = np.full(n, np.inf), g
        else:
            radii = rng.integers(1, 4, size=n).astype(float)
            disk = build_sdg(g, RangeAssignment(radii))
        msf = kruskal_msf(disk)
        uf = UnionFind(n)
        for u, v, _ in msf.edges:
            uf.union(u, v)
        multi += len({uf.find(u) for u, _, _ in msf.edges}) >= 2  # trees of two or more vertices
        tree = list(msf.edges)
        outside = sorted(set(g.edges) - set(tree), key=edge_key)
        candidates = [msf] + [Forest(n, tuple(tree[:i] + tree[i + 1 :])) for i in range(0, len(tree), 3)]
        for into in (outside[i] for i in rng.integers(len(outside), size=30)) if outside else ():
            kept = [e for e in tree if rng.random() > 1 / len(tree)]
            candidates.append(Forest(n, tuple(sorted(kept + [into], key=edge_key))))
        for f in candidates:
            assert is_msf(g.matrix, radii, f) == (f == msf)
            forests += 1
    assert multi > 60 and forests > 2500


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
    path = support.tree_path(f.adjacency(), 0, 2)
    assert {(u, v) for u, v, _ in path} == {(0, 1), (1, 2)}


def test_forest_cycle_star_chord():
    f = kruskal_msf(WeightedGraph.from_edges(5, tuple((0, i, 1.0) for i in range(1, 5))))
    path = support.tree_path(f.adjacency(), 1, 2)
    assert {(u, v) for u, v, _ in path} == {(0, 1), (0, 2)}


def test_forest_cycle_matches_dfs_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = support.random_connected_graph(10, 0, rng)
        f = kruskal_msf(g)
        u, v = sorted(rng.choice(10, size=2, replace=False))
        if (u, v) in f.edge_pairs():
            continue
        path = {(a, b) for a, b, _ in support.tree_path(f.adjacency(), int(u), int(v))}
        assert path == set(support.dfs_tree_path(10, f.edges, int(u), int(v)))


def test_forest_cycle_rejects_cross_component():
    f = kruskal_msf(WeightedGraph.from_edges(4, ((0, 1, 1.0), (2, 3, 1.0))))
    assert support.tree_path(f.adjacency(), 0, 2) is None


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
