"""Peak memory of the n x n stages at n = 1024, as multiples of n^2 * 8 bytes
(one float64 n x n array).

A stage's peak is the most that `tracemalloc` saw allocated at once while the
stage ran; memory already live when it began, such as the metric, is not
counted, and a build's peak includes the matrix it returns (1.0). Every n x n
pass outside Prim runs over row blocks (`graph.row_blocks`), so measured:
  * either metric build holds its matrix plus one block or two: 1.09; the
    star and chain families, built in place and adopted, 1.07;
  * loading a parsed n = 512 matrix instance file holds the rows that
    `bundle_from_dict` checks, one list per row (1.0, n^2 pointers, the
    floats being the parser's), and the matrix built from them: 2.29 in
    units of 512^2 * 8 bytes;
  * uniform radii on a built metric read the row extremes that its
    constructor stored, and hold only O(n) arrays and floats: 0.006, where
    one row block would take 0.0625;
  * `Prepared.msf` under uniform ranges holds the disk graph's masked rows,
    which `dense_msf` writes in its first row pass for the vertices outside
    L, the largest tree of known MSF edges, plus one chunk of the mask there
    and Prim's O(n) arrays later. As a trace round runs it, with no MST, L
    is one vertex: 1.038. As an evaluation does, from the MST built before,
    L is the largest tree of the MST edges that the radii keep, and 48 % of
    the vertices lie outside it: 0.520. Under biased ranges, whose
    generator builds the MST, it returns the MST and allocates next to
    nothing: 0.001;
  * `verify_certificate` holds `is_msf`'s O(n log n) sparse table and one
    row block of radius limits (0.0625) with the pairs it keeps, and no n x n
    array of any type: 0.13 under either range mode.
Each bound adds to its measured value a margin of at least 0.03 (250 KiB). One
more full-size temporary, float64 or a few boolean ones, breaks a bound.
"""
import tracemalloc

import pytest

from sdglab.decomposition import Prepared, verify_certificate
from sdglab.instances import (
    InstanceBundle,
    bundle_from_dict,
    gen_chain_metric,
    gen_random_euclidean,
    gen_random_matrix_metric,
    gen_random_ranges,
    gen_star_metric,
    read_json,
    write_instance,
)

N = 1024
UNIT = N * N * 8


def _peak(stage, unit=UNIT):
    """The stage's result and its traced peak in units of n^2 * 8 bytes."""
    tracemalloc.start()
    try:
        result = stage()
        return result, tracemalloc.get_traced_memory()[1] / unit
    finally:
        tracemalloc.stop()


BUILDS = pytest.mark.parametrize(
    "build",
    [lambda: gen_random_euclidean(N, 2, 2.0, 1), lambda: gen_random_matrix_metric(N, 1)],
    ids=["euclidean-d2p2", "matrix"],
)


@BUILDS
def test_metric_build_holds_only_its_matrix(build):
    m, peak = _peak(build)
    assert m.n == N
    assert peak < 1.25


@pytest.mark.parametrize("build", [gen_star_metric, gen_chain_metric])
def test_unit_radii_families_hold_only_their_matrix(build):
    bundle, peak = _peak(lambda: build(N))
    assert bundle.space.n == N
    assert peak < 1.10


def test_matrix_instance_file_loads_into_one_matrix(tmp_path):
    n = 512
    m = gen_random_matrix_metric(n, 1)
    path = tmp_path / "matrix.json"
    write_instance(InstanceBundle("matrix", m, gen_random_ranges(m, "biased", 2)), path)
    data = read_json(path)
    bundle, peak = _peak(lambda: bundle_from_dict(data), n * n * 8)
    assert bundle.space == m
    assert peak < 2.35  # a copy of the matrix would add 1.0


@BUILDS
def test_uniform_radii_read_no_row_block(build):
    m = build()
    ranges, peak = _peak(lambda: gen_random_ranges(m, "uniform", 2))
    assert len(ranges) == N
    assert peak < 0.04


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
    msf, peak = _peak(lambda: p.msf)
    if mode == "biased":
        assert msf is p.space.mst
        assert peak < 0.10
    else:
        assert "mst" not in vars(p.space)
        assert peak < 1.07


def test_disk_msf_from_the_mst_holds_one_masked_copy():
    # Uniform radii drop MST edges; Prim starts from the largest tree of the
    # kept ones, and only the rows outside it are masked.
    p = _prepared(lambda: gen_random_euclidean(N, 2, 2.0, 1), "uniform")
    p.space.mst
    _, peak = _peak(lambda: p.msf)
    assert peak < 0.56


@INSTANCES
def test_verifier_allocates_no_float_matrix(metric, mode):
    p = _prepared(metric, mode)
    args = (p.space, p.r, p.msf, p.path, p.certificate)
    problems, peak = _peak(lambda: verify_certificate(*args))
    assert problems == []
    assert peak < 0.16
