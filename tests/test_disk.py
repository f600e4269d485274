import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdglab.disk import RangeAssignment, build_sdg, sdg_msf
from sdglab.graph import WeightedGraph, kruskal_msf
from sdglab.instances import (
    gen_c3,
    gen_chain_metric,
    gen_line_graph,
    gen_random_euclidean,
    gen_random_ranges,
    gen_star_metric,
)
from sdglab.metric import Metric

from strategies import metric_range_pairs, metrics, seeds
import support


def test_star_sdg_is_hub_star():
    b = gen_star_metric(5)
    sdg = build_sdg(b.space, b.ranges)
    assert support.edge_pairs(sdg) == {(0, i) for i in range(1, 5)}
    assert all(w == 1.0 for _, _, w in sdg.edges)


def test_full_range_gives_complete_graph():
    b = gen_star_metric(6)
    r = RangeAssignment.constant(6, b.space.diameter())
    sdg = build_sdg(b.space, r)
    assert len(sdg.edges) == 15


def test_chain_sdg_is_unit_path():
    b = gen_chain_metric(5)
    sdg = build_sdg(b.space, b.ranges)
    assert support.edge_pairs(sdg) == {(i, i + 1) for i in range(4)}
    assert all(w == 1.0 for _, _, w in sdg.edges)


def test_c3_sdg_keeps_heavy_edge():
    b = gen_c3(1000.0)
    sdg = build_sdg(b.space, b.ranges)
    assert support.edge_pairs(sdg) == {(0, 1), (1, 2)}


@support.on_both_kernel_paths
def test_c3_msf_keeps_the_one_mst_edge_the_radii_keep():
    # The MST is {01, 02}; radius 1 at vertex 0 keeps 01 and drops 02, so the
    # disk-graph MSF is 01 plus the heavy edge 12, which Prim must still find,
    # from scratch and, once the graph's MST is built, with 01 known.
    for w in (0.5, 2.0, 3.0, 1000.0):
        b = gen_c3(w)
        expected = kruskal_msf(build_sdg(b.space, b.ranges))
        assert sdg_msf(b.space, b.ranges) == expected
        mst = b.space.mst
        assert sdg_msf(b.space, b.ranges) == expected
        if w > 2.0:
            assert mst.edges == ((0, 1, 1.0), (0, 2, 2.0))
            assert expected.edges == ((0, 1, 1.0), (1, 2, w))


def test_line_graph_sdg_routes_through_far_endpoint():
    b = gen_line_graph(5, 1000.0, 1e-4)
    sdg = build_sdg(b.space, b.ranges)
    # all middle-to-right edges, plus the left endpoint's nearest neighbor
    assert support.edge_pairs(sdg) == {(1, 4), (2, 4), (3, 4), (0, 1)}


def test_zero_ranges_give_edgeless_graph():
    b = gen_chain_metric(4)
    sdg = build_sdg(b.space, RangeAssignment.constant(4, 0.0))
    assert sdg.edges == ()


def _udg(m, c):
    """The unit disk graph: the disk graph under the constant assignment c."""
    return build_sdg(m, RangeAssignment.constant(m.n, c))


def test_udg_chain_path_and_complete():
    m = gen_chain_metric(5).space
    assert support.edge_pairs(_udg(m, 1.0)) == {(i, i + 1) for i in range(4)}
    assert len(_udg(m, 2.0).edges) == 10


def test_udg_threshold_scan():
    m = gen_random_euclidean(12, 2, 2.0, 9)
    udg = _udg(m, 0.3)
    expected = {
        (u, v)
        for u in range(12)
        for v in range(u + 1, 12)
        if m.matrix[u, v] <= 0.3
    }
    assert support.edge_pairs(udg) == expected


def test_range_assignment_validation():
    with pytest.raises(ValueError):
        RangeAssignment(radii=(-1.0,))
    with pytest.raises(ValueError):
        RangeAssignment(radii=(float("inf"),))
    m = gen_chain_metric(4).space
    with pytest.raises(ValueError):
        build_sdg(m, RangeAssignment.constant(3, 1.0))


def test_range_assignment_converts_to_floats():
    # ints, numpy floats and -0.0 are accepted and stored as Python floats,
    # in one tuple of the caller's order; -0.0 keeps its sign.
    r = RangeAssignment((1, np.float64(0.25), -0.0, True))
    assert r.radii == (1.0, 0.25, 0.0, 1.0)
    assert all(type(x) is float for x in r.radii)
    assert str(r.radii[2]) == "-0.0"
    assert RangeAssignment(np.array([0.5, 2.0])).radii == (0.5, 2.0)
    assert RangeAssignment(()).radii == ()


@pytest.mark.parametrize(
    "radii, message",
    [
        ((0.5, float("nan")), "radius nan at vertex 1"),
        ((float("inf"),), "radius inf at vertex 0"),
        ((0.0, 1.0, float("-inf")), "radius -inf at vertex 2"),
        ((2, -1.0, float("nan")), "radius -1.0 at vertex 1"),
        (np.array([0.0, np.nan]), "radius nan at vertex 1"),
    ],
)
def test_range_assignment_reports_the_first_bad_radius(radii, message):
    with pytest.raises(ValueError, match=f"^{message} must be finite and >= 0$"):
        RangeAssignment(radii)


def test_sdg_weights_equal_distances():
    m = gen_random_euclidean(9, 3, 1.0, 2)
    r = RangeAssignment.constant(9, 0.8)
    for u, v, w in build_sdg(m, r).edges:
        assert w == m.matrix[u, v]


@given(metric_range_pairs(max_n=14), seeds)
def test_sdg_monotone_in_ranges(pair, seed):
    m, r = pair
    rng = np.random.default_rng(seed)
    bigger = RangeAssignment(tuple(x + float(rng.random()) for x in r.radii))
    assert support.edge_pairs(build_sdg(m, r)) <= support.edge_pairs(build_sdg(m, bigger))


def _udg_msf_and_mst(m, c):
    """MSF(UDG(M, c)) and MST(M), compared under the shared total edge order:
    the forest is always contained in the tree, and equals it when connected."""
    return sdg_msf(m, RangeAssignment.constant(m.n, c)), m.mst


def test_udg_containment_chain_equality():
    msf, mst = _udg_msf_and_mst(gen_chain_metric(6).space, 1.0)
    assert msf.edge_pairs() <= mst.edge_pairs() and msf.connected
    assert msf.edge_pairs() == mst.edge_pairs()
    assert msf.weight / mst.weight == 1.0


def test_udg_containment_vacuous_below_min_distance():
    msf, mst = _udg_msf_and_mst(gen_chain_metric(6).space, 0.5)
    assert msf.edge_pairs() <= mst.edge_pairs() and not msf.connected
    assert msf.weight / mst.weight == 0.0


@given(metrics(max_n=16), st.floats(0.01, 1.0), seeds)
@settings(max_examples=30)
def test_udg_containment_random(m, frac, seed):
    c = m.min_distance() + frac * (m.diameter() - m.min_distance())
    msf, mst = _udg_msf_and_mst(m, c)
    assert msf.edge_pairs() <= mst.edge_pairs()
    if msf.connected:
        assert msf.edge_pairs() == mst.edge_pairs() and msf.weight / mst.weight == 1.0


def test_large_ranges_match_complete_graph_msf():
    m = gen_random_euclidean(15, 2, 2.0, 31)
    msf, mst = _udg_msf_and_mst(m, m.diameter())
    assert msf.edge_pairs() <= mst.edge_pairs() and msf.connected
    assert msf.weight / mst.weight == 1.0


@st.composite
def grid_metrics(draw):
    """Distinct integer points under l1 or l_inf: many distances tie."""
    dim = draw(st.sampled_from([1, 2]))
    side = draw(st.integers(2, 6))
    points = draw(st.lists(st.tuples(*[st.integers(0, side)] * dim), min_size=2, max_size=16, unique=True))
    return Metric.euclidean(np.array(points, dtype=float), p=draw(st.sampled_from([1.0, np.inf])))


@st.composite
def tied_range_pairs(draw):
    """A grid-tied or random metric, and radii from the range generator or
    drawn from its own distances, so that radii equal to weights are common."""
    m = draw(st.one_of(grid_metrics(), metrics(max_n=16)))
    mode = draw(st.sampled_from(["uniform", "biased", "distances"]))
    if mode != "distances":
        return m, gen_random_ranges(m, mode, draw(seeds))
    weights = sorted(set(m.matrix.ravel().tolist()))
    return m, RangeAssignment(tuple(draw(st.sampled_from(weights)) for _ in range(m.n)))


@given(tied_range_pairs())
@settings(max_examples=150)
def test_mst_edges_the_radii_keep_are_disk_msf_edges(pair):
    m, r = pair
    msf = kruskal_msf(build_sdg(m, r))
    kept = {(u, v) for u, v, w in kruskal_msf(WeightedGraph(m.matrix)).edges if min(r[u], r[v]) >= w}
    assert kept <= msf.edge_pairs()
    # Without the MST (never built by sdg_msf, as in a trace round), then from
    # it, the MST built on the same kernel path.
    for _ in support.kernel_paths():
        vars(m).pop("mst", None)
        assert sdg_msf(m, r) == msf
        assert "mst" not in vars(m)
        m.mst
        assert sdg_msf(m, r) == msf


@given(st.one_of(grid_metrics(), metrics(max_n=16)), seeds)
@settings(max_examples=60)
def test_biased_disk_msf_is_the_mst(m, seed):
    for _ in support.kernel_paths():
        vars(m).pop("mst", None)  # so the ranges build it on this path
        r = gen_random_ranges(m, "biased", seed)
        assert sdg_msf(m, r) is m.mst
        assert m.mst == kruskal_msf(build_sdg(m, r))
