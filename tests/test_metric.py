import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdglab.instances import gen_chain_metric, gen_random_matrix_metric
from sdglab import metric as metric_module
from sdglab.metric import Metric, MetricError, validate_metric

from strategies import metrics, seeds

C3_MATRIX = [[0.0, 1.0, 2.0], [1.0, 0.0, 1000.0], [2.0, 1000.0, 0.0]]


def test_distance_three_four_five():
    m = Metric.euclidean([[0.0, 0.0], [3.0, 4.0]], p=2.0)
    assert m.distance(0, 1) == 5.0
    assert m.distance(1, 0) == 5.0


def test_distance_identity_is_zero():
    m = Metric.euclidean([[0.0], [0.7], [1.0]], p=1.0)
    for v in range(3):
        assert m.distance(v, v) == 0.0


def test_chain_distance_between_non_neighbors():
    m = gen_chain_metric(5).metric
    assert m.distance(0, 2) == 2.0
    assert m.distance(0, 1) == 1.0


def test_distance_out_of_range():
    m = Metric.euclidean([[0.0], [1.0]])
    with pytest.raises(ValueError):
        m.distance(0, 2)


def test_diameter_chain():
    assert gen_chain_metric(5).metric.diameter() == 2.0


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
    brute = max(m.distance(u, v) for u in range(16) for v in range(u + 1, 16))
    assert m.diameter() == brute


def test_induce_full_set_is_identity():
    m = gen_random_matrix_metric(6, 99)
    sub, relabel = m.induce(range(6))
    assert relabel == tuple(range(6))
    assert np.array_equal(sub.matrix, m.matrix)


def test_induce_chain_odd_vertices():
    m = gen_chain_metric(5).metric
    sub, relabel = m.induce([0, 2, 4])
    assert relabel == (0, 2, 4)
    for i in range(3):
        for j in range(i + 1, 3):
            assert sub.distance(i, j) == 2.0


def test_induce_matches_parent_lookup():
    m = gen_random_matrix_metric(8, 5)
    sub, relabel = m.induce([1, 3, 4, 7])
    for i, a in enumerate(relabel):
        for j, b in enumerate(relabel):
            assert sub.distance(i, j) == m.distance(a, b)


def test_induce_empty_subset_rejected():
    m = gen_chain_metric(4).metric
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
    assert validate_metric(gen_chain_metric(6).metric.matrix) is None


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


def test_euclidean_rejects_duplicate_points():
    with pytest.raises(ValueError):
        Metric.euclidean([[0.5, 0.5], [0.5, 0.5]])


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
