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
matrix. Each constructor reads its matrix once for the row extremes: every
row's least off-diagonal entry (`nearest`) and largest entry (`farthest`), which
an l_p build takes from each block while it is in cache. The positivity and
finiteness checks, the triangle check's row filter, `min_distance` and
`diameter` all read these; a scan for the first bad pair runs only when they
show that one exists.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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


def _block_extremes(block: np.ndarray, rows: slice, nearest: np.ndarray, farthest: np.ndarray) -> None:
    """Sets nearest[rows] and farthest[rows] from block, the writable rows `rows`
    of a matrix with a zero diagonal: each row's least entry off the diagonal
    (+inf for one point) and its largest entry. NaN propagates to both. The
    block's diagonal entries are +inf while the minimum is taken, then 0 again."""
    farthest[rows] = block.max(axis=1)
    diagonal = block.ravel()[rows.start :: block.shape[1] + 1]  # its entries (u, u)
    diagonal[:] = np.inf
    block.min(axis=1, out=nearest[rows])
    diagonal[:] = 0.0


def _row_extremes(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nearest, farthest) of a square matrix with a zero diagonal (see
    `_block_extremes`), from a copy of one row block at a time."""
    n = len(d)
    nearest, farthest = np.empty(n), np.empty(n)
    for rows in row_blocks(n):
        _block_extremes(d[rows].copy(), rows, nearest, farthest)
    return nearest, farthest


def validate_metric(matrix, extremes: list | None = None) -> MetricViolation | None:
    """Check a square matrix against the metric axioms.

    Returns None if the matrix is a metric, otherwise the first violation:
    asymmetric pair, nonzero diagonal, nonpositive or non-finite off-diagonal
    entry, or the lexicographically first triple (u, v, w) with
    d(u,w) > d(u,v) + d(v,w). Comparisons are exact; no epsilon slack is applied.
    If `extremes` is a list, the row extremes (nearest, farthest) are appended
    to it once the entries pass, before the triangle check, so a caller that
    keeps a metric need not read its matrix again for them.

    After the symmetry and diagonal checks, one pass takes each row's least
    off-diagonal entry nearest[x] = min_{y != x} d(x,y) and its largest entry
    farthest[x]. Only if some nearest[x] <= 0 or some farthest[x] is not finite
    (NaN included) do the scans for the first such pair run.

    Only rows u that can hold a violation are scanned for triples. Every middle
    point v outside {u, w} has d(u,v) >= nearest[u] and d(v,w) >= nearest[w],
    and rounded addition is monotone, so fl(d(u,v) + d(v,w)) >=
    fl(nearest[u] + nearest[w]): a pair with d(u,w) <= fl(nearest[u] + nearest[w])
    has no violating v (and v in {u, w} adds a zero diagonal entry, which never
    violates). A row u with farthest[u] <= fl(nearest[u] + min(nearest)) has
    d(u,w) <= farthest[u] <= fl(nearest[u] + nearest[w]) for every w, again by
    monotone rounding, so the pair test runs only on the other rows. The
    scanned rows keep their ascending order, so the reported triple is the one
    an exhaustive scan reports. A matrix with entries in [a, 2a] tests no pair.
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
    nearest, farthest = _row_extremes(d)
    if not ((nearest > 0.0).all() and (farthest < np.inf).all()):
        # d is symmetric from here on, so each scan reads the upper triangle only.
        bad = _first_upper(d, _nonpositive_off_diagonal)
        if bad is not None:
            u, v = bad
            return MetricViolation(
                "positivity", (u, v), f"off-diagonal distance d({u},{v})={d[u, v]} is not positive"
            )
        u, v = _first_upper(d, _non_finite)
        return MetricViolation("positivity", (u, v), f"non-finite distance d({u},{v})={d[u, v]}")
    if extremes is not None:
        extremes += nearest, farthest
    if n < 3:
        return None  # a violating triple needs three distinct points
    rows = np.flatnonzero(farthest > nearest + nearest.min())
    if rows.size:
        picks = [rows[blk] for blk in row_blocks(rows.size, n)]
        rows = rows[np.concatenate([(d[us] > nearest[us, None] + nearest).any(axis=1) for us in picks])]
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


def _pairwise_lp(points: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The l_p distance matrix of the points and its row extremes (nearest,
    farthest), taken from each row block as soon as it is filled."""
    n, dim = points.shape
    d = np.zeros((n, n))
    nearest, farthest = np.empty(n), np.empty(n)
    blocks = row_blocks(n)
    term = np.empty((blocks[0].stop, n))
    for rows in blocks:
        out = d[rows]
        if dim == 1:  # 1-D distances are plain absolute differences for every p
            np.abs(np.subtract.outer(points[rows, 0], points[:, 0], out=out), out=out)
            _block_extremes(out, rows, nearest, farthest)
            continue
        t = term[: out.shape[0]]
        for x in points.T:
            np.subtract.outer(x[rows], x, out=t)
            if p == 2.0:
                np.multiply(t, t, out=t)  # t * t is |t| * |t| exactly, so no abs pass
            elif p in (1.0, np.inf):
                np.abs(t, out=t)
            else:
                np.power(np.abs(t, out=t), p, out=t)
            (np.maximum if p == np.inf else np.add)(out, t, out=out)
        if p == 2.0:
            np.sqrt(out, out=out)
        elif p not in (1.0, np.inf):
            np.power(out, 1.0 / p, out=out)
        _block_extremes(out, rows, nearest, farthest)
    return d, nearest, farthest


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
            d, nearest, farthest = _pairwise_lp(pts, float(p))
        # d is exactly symmetric, so its upper triangle holds the first bad pair,
        # and nonnegative, so a nonpositive distance is a zero one.
        if not farthest.max() < np.inf:
            u, v = _first_upper(d, _non_finite)
            raise ValueError(f"distance between points {u} and {v} overflows")
        if not nearest.min() > 0.0:
            u, v = _first_upper(d, _nonpositive_off_diagonal)
            raise ValueError(f"points {u} and {v} coincide; distances must be positive")
        return Metric(kind=EUCLIDEAN_LP, p=float(p), points=pts, matrix=d)._keeping(nearest, farthest)

    @staticmethod
    def from_matrix(matrix) -> "Metric":
        """The metric of a copy of `matrix`, checked by `validate_metric`."""
        return Metric.adopt_matrix(np.array(matrix, dtype=float))

    @staticmethod
    def adopt_matrix(d: np.ndarray) -> "Metric":
        """`from_matrix` without the copy: d, a float64 array that the caller
        built and hands over, is checked and becomes the read-only matrix."""
        extremes: list = []
        violation = validate_metric(d, extremes)
        if violation is not None:
            raise MetricError(violation)
        return Metric(kind=EXPLICIT_MATRIX, p=None, points=None, matrix=d)._keeping(*extremes)

    def _keeping(self, nearest: np.ndarray, farthest: np.ndarray) -> "Metric":
        """self, with the row extremes its constructor took from the matrix."""
        vars(self)["row_extremes"] = nearest, farthest
        return self

    @cached_property
    def row_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(nearest, farthest): each point's least distance to another point
        (+inf for one point) and its largest distance. The constructors store
        them from the pass that checks the matrix; a sub-metric from `induce`
        reads its matrix for them on first use."""
        return _row_extremes(self.matrix)

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
        return float(self.row_extremes[1].max())

    def min_distance(self) -> float:
        """Smallest positive pairwise distance; requires at least two points."""
        if self.n < 2:
            raise ValueError("min_distance needs at least two points")
        return float(self.row_extremes[0].min())

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
