"""Finite metric spaces: explicit distance matrices and l_p point sets.

A metric is immutable after construction and stores its full pairwise
distance matrix, so lookups are O(1) and all operations are pure. As a
`graph.Space` it carries `matrix`, `mst` and `is_metric`, and its size `n`
is the matrix's.
Explicit matrices are checked exactly against the metric axioms on
construction (every triple that could violate one); norms satisfy them by
definition. An l_p matrix is filled one row block at a time: a block adds a
plane of terms |a_k - b_k|^p per coordinate, in order k = 0..d-1 (the maximum
for p = inf), then takes the root once. That is numpy's order for a reduction
over d <= 7 trailing elements (it sums 8 or more pairwise). As
fl(a - b) = -fl(b - a) and a - a = 0, every plane is exactly symmetric with a
zero diagonal, so the sum needs no mirror.
Every n x n pass here, the checks included, runs over row blocks
(`graph.row_blocks`), so building a metric allocates no n x n array beside its
matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .graph import Space, row_blocks

EUCLIDEAN_LP = "euclidean_lp"
EXPLICIT_MATRIX = "matrix"

# Triples per block of the triangle check: an 8 MiB float64 buffer of sums.
TRIANGLE_BLOCK_TRIPLES = 1 << 20


@dataclass(frozen=True)
class MetricViolation:
    """First metric-axiom violation found in a candidate distance matrix."""

    kind: str  # "shape" | "symmetry" | "diagonal" | "positivity" | "triangle"
    indices: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return self.message


class MetricError(ValueError):
    """Raised when a candidate distance matrix is not a metric."""

    def __init__(self, violation: MetricViolation):
        super().__init__(str(violation))
        self.violation = violation


def _first_upper(d: np.ndarray, bad) -> tuple[int, int] | None:
    """First (u, v) with v >= u, in row-major order, where bad holds: bad(d, rows)
    is a boolean array over the entries (rows, rows.start:) of d, read one row
    block at a time. For a property symmetric in u and v this is also the first
    pair of the whole matrix: the first row that holds one holds none left of
    the diagonal, as its mirror would lie in an earlier row."""
    for rows in row_blocks(len(d)):
        hit = bad(d, rows)
        if hit.any():
            u, v = np.argwhere(hit)[0]
            return rows.start + int(u), rows.start + int(v)
    return None


def _asymmetric(d: np.ndarray, rows: slice) -> np.ndarray:
    a, b = d[rows, rows.start :], d[rows.start :, rows].T
    bad = a != b
    if bad.any():  # a NaN pair is symmetric; the non-finite check reports it
        bad &= ~(np.isnan(a) & np.isnan(b))
    return bad


def _nonpositive_off_diagonal(d: np.ndarray, rows: slice) -> np.ndarray:
    u, v = np.arange(rows.start, rows.stop)[:, None], np.arange(rows.start, len(d))
    return (d[rows, rows.start :] <= 0.0) & (v > u)


def _non_finite(d: np.ndarray, rows: slice) -> np.ndarray:
    return ~np.isfinite(d[rows, rows.start :])


def _nearest(d: np.ndarray) -> np.ndarray:
    """min_{y != x} d(x, y) for every row x (+inf for one point), by row blocks."""
    n = len(d)
    out = np.empty(n)
    for rows in row_blocks(n):
        block = d[rows].copy()
        block.ravel()[rows.start :: n + 1] = np.inf  # its entries (u, u)
        out[rows] = block.min(axis=1)
        del block  # so the next block's copy is the only one held
    return out


def validate_metric(matrix) -> MetricViolation | None:
    """Check a square matrix against the metric axioms.

    Returns None if the matrix is a metric, otherwise the first violation:
    asymmetric pair, nonzero diagonal, nonpositive or non-finite off-diagonal
    entry, or the lexicographically first triple (u, v, w) with
    d(u,w) > d(u,v) + d(v,w). Comparisons are exact; no epsilon slack is applied.

    Only rows u that can hold a violation are scanned for triples. Let
    nearest[x] = min_{y != x} d(x,y). Every middle point v outside {u, w} has
    d(u,v) >= nearest[u] and d(v,w) >= nearest[w], and rounded addition is
    monotone, so fl(d(u,v) + d(v,w)) >= fl(nearest[u] + nearest[w]): a pair
    with d(u,w) <= fl(nearest[u] + nearest[w]) has no violating v (and v in
    {u, w} adds a zero diagonal entry, which never violates). The scanned rows
    keep their ascending order, so the reported triple is the one an exhaustive
    scan reports. A matrix with entries in [a, 2a] scans no row at all.
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        return MetricViolation("shape", (), f"expected a square matrix, got shape {d.shape}")
    n = d.shape[0]
    bad = _first_upper(d, _asymmetric)
    if bad is not None:
        u, v = bad
        return MetricViolation(
            "symmetry", (u, v), f"asymmetric entries: d({u},{v})={d[u, v]} != d({v},{u})={d[v, u]}"
        )
    diag = np.argwhere(np.diagonal(d) != 0.0)
    if diag.size:
        u = int(diag[0][0])
        return MetricViolation("diagonal", (u,), f"nonzero diagonal entry d({u},{u})={d[u, u]}")
    # d is symmetric from here on, so each check reads the upper triangle only.
    bad = _first_upper(d, _nonpositive_off_diagonal)
    if bad is not None:
        u, v = bad
        return MetricViolation(
            "positivity", (u, v), f"off-diagonal distance d({u},{v})={d[u, v]} is not positive"
        )
    bad = _first_upper(d, _non_finite)
    if bad is not None:
        u, v = bad
        return MetricViolation("positivity", (u, v), f"non-finite distance d({u},{v})={d[u, v]}")
    if n < 3:
        return None  # a violating triple needs three distinct points
    nearest = _nearest(d)
    rows = np.flatnonzero(
        np.concatenate([(d[blk] > nearest[blk, None] + nearest).any(axis=1) for blk in row_blocks(n)])
    )
    # d[u,w] <= d[u,v] + d[v,w] for every triple of the rows left, checked over
    # blocks of them in ascending order, so memory stays O(n^2) and the first
    # violating triple in lexicographic order is found in the first block that
    # has one.
    block = max(1, TRIANGLE_BLOCK_TRIPLES // (n * n))
    sums = np.empty((min(block, len(rows)), n, n))
    viol = np.empty(sums.shape, dtype=bool)
    for start in range(0, len(rows), block):
        us = rows[start : start + block]
        k = len(us)
        du = d[us]
        np.add(du[:, :, None], d[None, :, :], out=sums[:k])
        np.greater(du[:, None, :], sums[:k], out=viol[:k])
        if viol[:k].any():
            i, v, w = (int(x) for x in np.argwhere(viol[:k])[0])
            u = int(us[i])
            return MetricViolation(
                "triangle",
                (u, v, w),
                f"triangle inequality fails for ({u},{v},{w}): "
                f"d({u},{w})={d[u, w]} > d({u},{v})+d({v},{w})={d[u, v] + d[v, w]}",
            )
    return None


def as_vertex_subset(indices: Iterable[int], n: int) -> tuple[int, ...]:
    """Normalize an iterable of vertex indices to a strictly increasing tuple."""
    subset = tuple(sorted(int(v) for v in indices))
    if not subset:
        raise ValueError("vertex subset must be nonempty")
    for i, v in enumerate(subset):
        if v < 0 or v >= n:
            raise ValueError(f"vertex index {v} out of range [0, {n})")
        if i > 0 and subset[i - 1] == v:
            raise ValueError(f"duplicate vertex index {v} in subset")
    return subset


def _pairwise_lp(points: np.ndarray, p: float) -> np.ndarray:
    n, dim = points.shape
    d = np.zeros((n, n))
    blocks = row_blocks(n)
    term = np.empty((blocks[0].stop, n))
    for rows in blocks:
        out = d[rows]
        if dim == 1:  # 1-D distances are plain absolute differences for every p
            np.abs(np.subtract.outer(points[rows, 0], points[:, 0], out=out), out=out)
            continue
        t = term[: out.shape[0]]
        for x in points.T:
            np.abs(np.subtract.outer(x[rows], x, out=t), out=t)
            if p == 2.0:
                np.multiply(t, t, out=t)
            elif p not in (1.0, np.inf):
                np.power(t, p, out=t)
            (np.maximum if p == np.inf else np.add)(out, t, out=out)
        if p == 2.0:
            np.sqrt(out, out=out)
        elif p not in (1.0, np.inf):
            np.power(out, 1.0 / p, out=out)
    return d


@dataclass(frozen=True, eq=False)
class Metric(Space):
    """An n-point metric with O(1) distance lookups.

    Use :meth:`euclidean` or :meth:`from_matrix` to construct one.
    """

    kind: str
    p: float | None
    points: np.ndarray | None
    matrix: np.ndarray
    is_metric = True

    def __post_init__(self):
        for a in (self.matrix, self.points):
            if a is not None:
                a.setflags(write=False)

    @staticmethod
    def euclidean(points, p: float = 2.0) -> "Metric":
        """The l_p metric on the rows of an (n, d) coordinate array.

        For p in {1, 2, inf} the distances take only subtraction, absolute
        value, squaring, addition or maximum, and a square root for p = 2,
        all correctly rounded, so they are the same on every machine. Other
        p take numpy's `power`, whose result may differ in the last bit
        between machines, since numpy picks its elementwise kernel by CPU.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"expected an (n, d) coordinate array, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("need at least one point")
        if not (p >= 1.0):
            raise ValueError(f"p must be >= 1 or inf, got {p}")
        if not np.isfinite(pts).all():
            u = int(np.argwhere(~np.isfinite(pts))[0][0])
            raise ValueError(f"point {u} has a non-finite coordinate")
        with np.errstate(over="ignore"):
            d = _pairwise_lp(pts, float(p))
        # d is exactly symmetric, so its upper triangle holds the first bad pair,
        # and nonnegative, so a nonpositive distance is a zero one.
        bad = _first_upper(d, _non_finite)
        if bad is not None:
            raise ValueError(f"distance between points {bad[0]} and {bad[1]} overflows")
        bad = _first_upper(d, _nonpositive_off_diagonal)
        if bad is not None:
            raise ValueError(f"points {bad[0]} and {bad[1]} coincide; distances must be positive")
        return Metric(kind=EUCLIDEAN_LP, p=float(p), points=pts, matrix=d)

    @staticmethod
    def from_matrix(matrix) -> "Metric":
        """The metric of a copy of `matrix`, checked by `validate_metric`."""
        return Metric.adopt_matrix(np.array(matrix, dtype=float))

    @staticmethod
    def adopt_matrix(d: np.ndarray) -> "Metric":
        """`from_matrix` without the copy: d, a float64 array that the caller
        built and hands over, is checked and becomes the read-only matrix."""
        violation = validate_metric(d)
        if violation is not None:
            raise MetricError(violation)
        return Metric(kind=EXPLICIT_MATRIX, p=None, points=None, matrix=d)

    def __eq__(self, other) -> bool:
        if not getattr(other, "is_metric", False):
            return NotImplemented
        if self.kind != other.kind or self.n != other.n or self.p != other.p:
            return False
        if self.kind == EUCLIDEAN_LP:
            return np.array_equal(self.points, other.points)
        return np.array_equal(self.matrix, other.matrix)

    def diameter(self) -> float:
        """Largest pairwise distance; requires at least two points."""
        if self.n < 2:
            raise ValueError("diameter needs at least two points")
        return float(self.matrix.max())

    def min_distance(self) -> float:
        """Smallest positive pairwise distance; requires at least two points."""
        if self.n < 2:
            raise ValueError("min_distance needs at least two points")
        return float(_nearest(self.matrix).min())

    def induce(self, subset: Sequence[int]) -> tuple["Metric", tuple[int, ...]]:
        """Sub-metric on `subset`, plus the new-index -> old-index relabeling.

        Distances are unchanged: entry (i, j) of the result equals entry
        (subset[i], subset[j]) of the parent's matrix, for every kind. An l_p
        sub-metric keeps the subset's points, kind and p.
        """
        sub = as_vertex_subset(subset, self.n)
        points = None if self.points is None else self.points[list(sub)]
        # A principal submatrix of a metric is a metric; skip revalidation.
        return replace(self, points=points, matrix=self.matrix[np.ix_(sub, sub)]), sub
