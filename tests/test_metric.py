import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdglab.instances import gen_chain_metric, gen_random_euclidean, gen_random_matrix_metric, gen_star_metric
from sdglab import metric as metric_module
from sdglab.metric import Metric, MetricError, validate_metric
from sdglab.sweep import SWEEP_DIMS, SWEEP_PS

import support
from strategies import metrics

C3_MATRIX = [[0.0, 1.0, 2.0], [1.0, 0.0, 1000.0], [2.0, 1000.0, 0.0]]


def test_distance_three_four_five():
    m = Metric.euclidean([[0.0, 0.0], [3.0, 4.0]], p=2.0)
    assert m.matrix[0, 1] == 5.0
    assert m.matrix[1, 0] == 5.0


def test_distance_identity_is_zero():
    m = Metric.euclidean([[0.0], [0.7], [1.0]], p=1.0)
    for v in range(3):
        assert m.matrix[v, v] == 0.0


def test_chain_distance_between_non_neighbors():
    m = gen_chain_metric(5).space
    assert m.matrix[0, 2] == 2.0
    assert m.matrix[0, 1] == 1.0


def test_diameter_chain():
    assert gen_chain_metric(5).space.diameter() == 2.0


def test_diameter_single_pair():
    m = Metric.from_matrix([[0.0, 7.0], [7.0, 0.0]])
    assert m.diameter() == 7.0


def test_diameter_single_point_rejected():
    m = Metric.euclidean([[0.0, 0.0]])
    with pytest.raises(ValueError):
        m.diameter()


def test_diameter_matches_pair_scan():
    rng = np.random.default_rng(20)
    m = Metric.euclidean(rng.random((16, 2)), p=2.0)
    brute = max(m.matrix[u, v] for u in range(16) for v in range(u + 1, 16))
    assert m.diameter() == brute


def _pair_extremes(m):
    """The least and largest distance over every pair, by a plain scan."""
    d = m.matrix.tolist()
    pairs = [d[u][v] for u in range(m.n) for v in range(u + 1, m.n)]
    return min(pairs), max(pairs)


def test_min_distance_matches_pair_scan():
    rng = np.random.default_rng(22)
    built = [gen_star_metric(7).space, gen_chain_metric(6).space, Metric.from_matrix([[0.0, 3.0], [3.0, 0.0]])]
    for n in (2, 3, 12):
        built.append(gen_random_matrix_metric(n, n))
        built.append(Metric.from_matrix(np.array(gen_random_matrix_metric(n, n + 1).matrix) * 0.1))
        built += [gen_random_euclidean(n, d, p, n) for d in SWEEP_DIMS for p in SWEEP_PS + (1.5,)]
    for m in built:
        # Each constructor stores the extremes of the pass that checked it.
        assert "row_extremes" in vars(m)
        assert (m.min_distance(), m.diameter()) == _pair_extremes(m)
        for size in {2, max(2, m.n // 2), m.n}:
            sub, _ = m.induce(rng.choice(m.n, size=size, replace=False))
            assert "row_extremes" not in vars(sub)  # read from its matrix on first use
            assert (sub.min_distance(), sub.diameter()) == _pair_extremes(sub)


LP_PS = (1.0, 1.5, 2.0, 3.0, math.inf)


def _lp_points(rng, n, dim):
    """Full-precision points and points snapped to a 2^-4 grid, which tie often."""
    pts = rng.random((n, dim)) * 10
    return pts, np.round(pts * 16) / 16


@pytest.mark.parametrize("p", LP_PS)
@pytest.mark.parametrize("dim", range(1, 8))
def test_pairwise_lp_equals_the_trailing_axis_reduction(dim, p):
    rng = np.random.default_rng(dim)
    for n in (1, 2, 3, 64):
        for pts in _lp_points(rng, n, dim):
            got = metric_module._pairwise_lp(pts, p)[0]
            assert np.array_equal(got.view(np.int64), support.trailing_axis_lp(pts, p).view(np.int64))


@pytest.mark.parametrize("p", LP_PS)
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_pairwise_lp_row_extremes_match_its_matrix(dim, p):
    rng = np.random.default_rng(dim + 30)
    for n in (1, 2, 5, 300):  # 300 rows span two row blocks
        for pts in _lp_points(rng, n, dim):
            d, nearest, farthest = metric_module._pairwise_lp(pts, p)
            off = d + np.diag(np.full(n, np.inf))
            assert np.array_equal(nearest, off.min(axis=1)) and np.array_equal(farthest, d.max(axis=1))


@pytest.mark.parametrize("p", LP_PS)
@pytest.mark.parametrize("dim", [8, 12])
def test_pairwise_lp_sums_in_coordinate_order(dim, p):
    rng = np.random.default_rng(dim)
    for pts in _lp_points(rng, 24, dim):
        got = metric_module._pairwise_lp(pts, p)[0]
        assert np.array_equal(got.view(np.int64), support.in_order_lp(pts, p).view(np.int64))


@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_euclidean_memory_is_two_matrices(p):
    n = 1024
    pts = np.random.default_rng(5).random((n, 5))
    tracemalloc.start()
    try:
        Metric.euclidean(pts, p=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8  # one n x n x d float64 array would take 5 n^2


def test_euclidean_builds_without_numpy_power(monkeypatch):
    # The standard sweep's p in {1, 2, inf} never reach numpy's power kernel,
    # whose last bit may vary between machines, so the golden rows cannot.
    def refuse(*args, **kwargs):
        raise AssertionError("np.power called")

    monkeypatch.setattr(np, "power", refuse)
    rng = np.random.default_rng(53)
    for dim in (1, 2, 3):
        pts = rng.random((12, dim))
        for p in (1.0, 2.0, math.inf):
            Metric.euclidean(pts, p=p)
        if dim > 1:  # the patch reaches the l_p build: other p do call it
            with pytest.raises(AssertionError, match="np.power called"):
                Metric.euclidean(pts, p=3.0)


def test_induce_full_set_is_identity():
    m = gen_random_matrix_metric(6, 99)
    sub, relabel = m.induce(range(6))
    assert relabel == tuple(range(6))
    assert np.array_equal(sub.matrix, m.matrix)


def test_induce_chain_odd_vertices():
    m = gen_chain_metric(5).space
    sub, relabel = m.induce([0, 2, 4])
    assert relabel == (0, 2, 4)
    for i in range(3):
        for j in range(i + 1, 3):
            assert sub.matrix[i, j] == 2.0


def test_induce_matches_parent_lookup():
    m = gen_random_matrix_metric(8, 5)
    sub, relabel = m.induce([1, 3, 4, 7])
    for i, a in enumerate(relabel):
        for j, b in enumerate(relabel):
            assert sub.matrix[i, j] == m.matrix[a, b]
    # An l_p sub-metric is a slice of the parent's matrix, and bit for bit the
    # metric that its points give when the distances are computed afresh.
    rng = np.random.default_rng(7)
    for d in SWEEP_DIMS:
        for p in SWEEP_PS + (1.5,):
            for seed in range(3):
                m = gen_random_euclidean(12, d, p, seed)
                sub, relabel = m.induce(rng.choice(12, size=int(rng.integers(1, 13)), replace=False))
                assert np.array_equal(sub.matrix, m.matrix[np.ix_(relabel, relabel)])
                fresh = Metric.euclidean(m.points[list(relabel)], p)
                assert sub == fresh and np.array_equal(sub.matrix, fresh.matrix)
                assert not sub.points.flags.writeable and not sub.matrix.flags.writeable


def test_induce_empty_subset_rejected():
    m = gen_chain_metric(4).space
    with pytest.raises(ValueError):
        m.induce([])


def test_validate_c3_reports_first_triple():
    violation = validate_metric(C3_MATRIX)
    assert violation is not None
    assert violation.kind == "triangle"
    assert violation.indices == (1, 0, 2)  # d(b,c) > d(b,a) + d(a,c)


def _first_triangle_violation(d):
    d = d.tolist()
    n = len(d)
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if d[u][w] > d[u][v] + d[v][w]:
                    return u, v, w
    return None


@pytest.mark.parametrize("rows_per_block", [1, 2, 5, None])
def test_validate_reports_first_of_several_triangle_violations(rows_per_block, monkeypatch):
    n = 12
    if rows_per_block is not None:
        monkeypatch.setattr(metric_module, "TRIANGLE_BLOCK_TRIPLES", rows_per_block * n * n)
    rng = np.random.default_rng(41)
    for seed in range(10):
        d = np.array(gen_random_matrix_metric(n, seed).matrix)
        for _ in range(3):  # entries in [1, 2] lifted to 4.5 break several triangles
            u, w = rng.choice(n, size=2, replace=False)
            d[u, w] = d[w, u] = 4.5
        violation = validate_metric(d)
        u, v, w = _first_triangle_violation(d)
        assert violation.kind == "triangle" and violation.indices == (u, v, w)
        assert violation.message == (
            f"triangle inequality fails for ({u},{v},{w}): "
            f"d({u},{w})={d[u, w]} > d({u},{v})+d({v},{w})={d[u, v] + d[v, w]}"
        )


def _symmetric(n, entries, rng):
    """Symmetric matrix with a zero diagonal and off-diagonal entries drawn from `entries`."""
    d = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    d[iu] = rng.choice(entries, size=len(iu[0]))
    return d + d.T


def _late_violations(n, rng):
    """A metric with entries in [1, 2] whose only violating rows are among the last three."""
    d = np.array(gen_random_matrix_metric(n, int(rng.integers(1 << 30))).matrix)
    for _ in range(int(rng.integers(1, 3))):
        u, w = rng.choice(np.arange(n - 3, n), size=2, replace=False)
        d[u, w] = d[w, u] = 4.0 + float(rng.integers(1, 9)) / 4.0  # above any two-step sum
    return d


@pytest.mark.parametrize("rows_per_block", [1, 2, None])
def test_validate_matches_exhaustive_triangle_scan(rows_per_block, monkeypatch):
    if rows_per_block is not None:  # blocks of that many rows at n = 9
        monkeypatch.setattr(metric_module, "TRIANGLE_BLOCK_TRIPLES", rows_per_block * 81)
    rng = np.random.default_rng(43)
    ints = [_symmetric(int(rng.integers(3, 10)), np.arange(1.0, hi + 1), rng) for hi in rng.choice([2, 3, 5, 9], 3000)]
    near_ties = [_symmetric(int(rng.integers(3, 10)), [0.1, 0.2, 0.3, 0.1 + 0.2, 0.4, 0.5], rng) for _ in range(600)]
    late = [_late_violations(int(rng.integers(9, 17)), rng) for _ in range(200)]
    small = [np.zeros((0, 0)), np.zeros((1, 1)), np.array([[0.0, 3.0], [3.0, 0.0]])]
    small += [np.array(m, dtype=float) for m in ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])]
    violating = 0
    for d in ints + near_ties + late + small:
        expected = support.exhaustive_triangle_violation(d)
        assert validate_metric(d) == expected
        violating += expected is not None
    assert violating > 1500 and all(support.exhaustive_triangle_violation(d) for d in late)
    assert [validate_metric(d) for d in small[:4]] == [None] * 4
    assert validate_metric(small[4]).indices == (0, 1, 2)


def test_validate_triangle_check_memory_is_quadratic():
    d = gen_random_matrix_metric(256, 5).matrix
    tracemalloc.start()
    try:
        assert validate_metric(d) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # one n^3 float64 array would take 128 MiB


def test_validate_chain_ok():
    assert validate_metric(gen_chain_metric(6).space.matrix) is None


def test_validate_closure_repaired_matrix_ok():
    for seed in range(20):
        m = gen_random_matrix_metric(9, seed)
        assert validate_metric(m.matrix) is None


def test_validate_asymmetry_and_diagonal():
    bad = validate_metric([[0.0, 1.0], [2.0, 0.0]])
    assert bad is not None and bad.kind == "symmetry"
    bad = validate_metric([[1.0, 1.0], [1.0, 0.0]])
    assert bad is not None and bad.kind == "diagonal"


def test_from_matrix_rejects_non_metric():
    with pytest.raises(MetricError) as err:
        Metric.from_matrix(C3_MATRIX)
    assert err.value.violation.indices == (1, 0, 2)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_euclidean_names_the_first_overflowing_or_coincident_pair(p):
    # The first pair in row-major order whose distance overflows, else the first
    # whose points coincide, found by a pair scan of the reference matrix.
    rng = np.random.default_rng(59)
    outcomes = set()
    for _ in range(300):
        n, dim = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        pts = rng.integers(0, 3, size=(n, dim)).astype(float)  # coincide often
        for u in rng.choice(n, size=int(rng.integers(0, 3)), replace=False):
            pts[u, rng.integers(dim)] = rng.choice([1e308, -1e308, 1e200])
        with np.errstate(over="ignore"):
            d = support.trailing_axis_lp(pts, p)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        over = next(((u, v) for u, v in pairs if not np.isfinite(d[u, v])), None)
        same = next(((u, v) for u, v in pairs if d[u, v] == 0.0), None)
        if over is None and same is None:
            assert np.array_equal(Metric.euclidean(pts, p).matrix, d)
            outcomes.add("ok")
            continue
        with pytest.raises(ValueError) as err:
            Metric.euclidean(pts, p)
        if over is not None:
            assert str(err.value) == f"distance between points {over[0]} and {over[1]} overflows"
        else:
            assert str(err.value) == f"points {same[0]} and {same[1]} coincide; distances must be positive"
        outcomes.add("overflow" if over is not None else "coincide")
    assert outcomes == {"ok", "overflow", "coincide"}


def test_euclidean_rejects_duplicate_points():
    with pytest.raises(ValueError, match="points 0 and 1 coincide"):
        Metric.euclidean([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="points 1 and 3 coincide"):
        Metric.euclidean([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])


def test_validate_reports_the_first_nonpositive_off_diagonal_entry():
    d = np.full((4, 4), 2.0)
    np.fill_diagonal(d, 0.0)
    d[1, 3] = d[3, 1] = 0.0
    d[2, 3] = d[3, 2] = -1.0
    bad = validate_metric(d)
    assert (bad.kind, bad.indices) == ("positivity", (1, 3))
    assert bad.message == "off-diagonal distance d(1,3)=0.0 is not positive"


FAULT_VALUES = (0.0, -0.0, -1.0, 4.5, 9.0, math.inf, -math.inf, math.nan)


@st.composite
def faulty_matrices(draw):
    """Small symmetric matrices with a zero diagonal and entries from a set that
    makes near-ties and triangle faults common, with up to three planted
    faults: a symmetric pair, a one-sided entry or a diagonal entry."""
    n = draw(st.integers(0, 8))
    values = draw(st.sampled_from([(1.0, 2.0), (1.0, 2.0, 3.0, 5.0), (0.1, 0.2, 0.3, 0.1 + 0.2, 0.5)]))
    d = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            d[u, v] = d[v, u] = draw(st.sampled_from(values))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        where = draw(st.sampled_from(["pair", "one-sided", "diagonal"]))
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x = draw(st.sampled_from(FAULT_VALUES + (1.0,)))
        if where == "diagonal":
            d[u, u] = x
        else:
            d[u, v] = x
            if where == "pair":
                d[v, u] = x
    return d


def _one_row_blocks(count, width=None):
    return tuple(slice(i, i + 1) for i in range(count))


@settings(max_examples=400, deadline=None)
@given(faulty_matrices())
def test_validate_matches_the_axiom_by_axiom_scan(d):
    expected = support.scanned_metric_violation(d)
    before = d.copy()
    for blocks in (metric_module.row_blocks, _one_row_blocks):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metric_module, "row_blocks", blocks)
            extremes = []
            assert validate_metric(d, extremes) == expected
        assert np.array_equal(d, before, equal_nan=True)  # read, never written
        if expected is None and len(d):
            off = d + np.diag(np.full(len(d), np.inf))
            assert [a.tolist() for a in extremes] == [off.min(axis=1).tolist(), d.max(axis=1).tolist()]


@pytest.mark.parametrize(
    "kind, entries",
    [
        ("symmetry", {(1, 2): 3.0}),
        ("diagonal", {(2, 2): 1.0}),
        ("positivity", {(1, 3): -1.0, (3, 1): -1.0}),
        ("positivity", {(0, 2): math.nan, (2, 0): math.nan}),
        ("positivity", {(2, 3): math.inf, (3, 2): math.inf}),
        ("triangle", {(0, 3): 4.5, (3, 0): 4.5}),
    ],
    ids=["symmetry", "diagonal", "negative", "nan", "inf", "triangle"],
)
def test_validate_reports_each_kind_of_fault_as_the_scan_does(kind, entries):
    d = np.full((4, 4), 2.0)
    np.fill_diagonal(d, 0.0)
    for (u, v), x in entries.items():
        d[u, v] = x
    got = validate_metric(d)
    assert got == support.scanned_metric_violation(d) and got.kind == kind


@given(metrics(max_n=12))
def test_triangle_inequality_all_triples(m):
    d = m.matrix
    for u in range(m.n):
        for v in range(m.n):
            for w in range(m.n):
                assert d[u, w] <= d[u, v] + d[v, w]


@given(metrics(min_n=4, max_n=14), st.data())
def test_induce_composes(m, data):
    outer = sorted(
        data.draw(st.sets(st.integers(0, m.n - 1), min_size=2, max_size=m.n), label="outer")
    )
    sub, relabel = m.induce(outer)
    inner = sorted(
        data.draw(st.sets(st.integers(0, len(outer) - 1), min_size=1, max_size=len(outer)))
    )
    twice, _ = sub.induce(inner)
    once, _ = m.induce([relabel[i] for i in inner])
    assert np.array_equal(twice.matrix, once.matrix)


@given(metrics(max_n=14))
def test_symmetry_and_positivity(m):
    assert np.array_equal(m.matrix, m.matrix.T)
    off = m.matrix + np.eye(m.n)
    assert (off > 0).all()


@pytest.mark.parametrize(
    "points,p,message",
    [
        ([[0.0, 1.0], [math.nan, 1.0]], 2.0, "point 1 has a non-finite coordinate"),
        ([[0.0], [math.inf]], 1.0, "point 1 has a non-finite coordinate"),
        ([[0.0, 1.0], [1e308, 1e308]], 2.0, "distance between points 0 and 1 overflows"),
        ([[0.0, 1.0], [1e308, 1e308]], 1.0, "distance between points 0 and 1 overflows"),
        ([[-1e308, 0.0], [1e308, 0.0]], math.inf, "distance between points 0 and 1 overflows"),
    ],
)
def test_euclidean_rejects_non_finite_distances(points, p, message):
    with pytest.raises(ValueError, match=message):
        Metric.euclidean(points, p=p)
