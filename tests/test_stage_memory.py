"""Peak memory of the n x n stages at n = 1024, as multiples of n^2 * 8 bytes
(one float64 n x n array).

A stage's peak is the most that `tracemalloc` saw allocated at once while the
stage ran; memory already live when it began, such as the metric, is not
counted, and a build's peak includes the matrix it returns (1.0). Every n x n
pass outside Prim runs over row blocks (`graph.row_blocks`), so measured:
  * either metric build holds its matrix plus one block or two: 1.09;
  * `Prepared.msf` holds the disk graph's one masked copy, plus blocks and
    Prim's O(n) arrays: 1.07;
  * `verify_certificate` holds `is_msf`'s int32 index matrix (0.5) plus
    blocks, 0.65, and so no n x n float64 array.
Each bound adds to its measured value a margin of at least 0.03 (250 KiB). One
more full-size temporary, float64 or a few boolean ones, breaks a bound.
"""
import tracemalloc

import pytest

from sdglab.decomposition import Prepared, verify_certificate
from sdglab.instances import gen_random_euclidean, gen_random_matrix_metric, gen_random_ranges

N = 1024
UNIT = N * N * 8


def _peak(stage):
    """The stage's result and its traced peak in units of n^2 * 8 bytes."""
    tracemalloc.start()
    try:
        result = stage()
        return result, tracemalloc.get_traced_memory()[1] / UNIT
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build",
    [lambda: gen_random_euclidean(N, 2, 2.0, 1), lambda: gen_random_matrix_metric(N, 1)],
    ids=["euclidean-d2p2", "matrix"],
)
def test_metric_build_holds_only_its_matrix(build):
    m, peak = _peak(build)
    assert m.n == N
    assert peak < 1.25


INSTANCES = pytest.mark.parametrize(
    "metric, mode",
    [(lambda: gen_random_euclidean(N, 2, 2.0, 1), "uniform"), (lambda: gen_random_matrix_metric(N, 1), "biased")],
    ids=["euclidean-d2p2-uniform", "matrix-biased"],
)


def _prepared(metric, mode) -> Prepared:
    m = metric()
    return Prepared(m, gen_random_ranges(m, mode, 2), "approx")


@INSTANCES
def test_disk_msf_holds_one_masked_copy(metric, mode):
    p = _prepared(metric, mode)
    _, peak = _peak(lambda: p.msf)
    assert peak < 1.10


@INSTANCES
def test_verifier_allocates_no_float_matrix(metric, mode):
    p = _prepared(metric, mode)
    args = (p.space, p.r, p.msf, p.path, p.certificate)
    problems, peak = _peak(lambda: verify_certificate(*args))
    assert problems == []
    assert peak < 0.80
