"""Finite metric spaces: explicit distance matrices and l_p point sets.

A metric is immutable after construction and stores its full pairwise
distance matrix, so lookups are O(1) and all operations are pure.
Explicit matrices are checked exhaustively against the metric axioms on
construction; norms satisfy them by definition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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


def validate_metric(matrix) -> MetricViolation | None:
    """Check a square matrix against the metric axioms.

    Returns None if the matrix is a metric, otherwise the first violation:
    asymmetric pair, nonzero diagonal, nonpositive off-diagonal entry, or the
    lexicographically first triple (u, v, w) with d(u,w) > d(u,v) + d(v,w).
    Comparisons are exact; no epsilon slack is applied.
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        return MetricViolation("shape", (), f"expected a square matrix, got shape {d.shape}")
    n = d.shape[0]
    bad = np.argwhere(d != d.T)
    if bad.size:
        u, v = (int(x) for x in bad[0])
        return MetricViolation(
            "symmetry", (u, v), f"asymmetric entries: d({u},{v})={d[u, v]} != d({v},{u})={d[v, u]}"
        )
    diag = np.argwhere(np.diagonal(d) != 0.0)
    if diag.size:
        u = int(diag[0][0])
        return MetricViolation("diagonal", (u,), f"nonzero diagonal entry d({u},{u})={d[u, u]}")
    off = d + np.eye(n)  # mask the diagonal before the positivity scan
    bad = np.argwhere(off <= 0.0)
    if bad.size:
        u, v = (int(x) for x in bad[0])
        return MetricViolation(
            "positivity", (u, v), f"off-diagonal distance d({u},{v})={d[u, v]} is not positive"
        )
    if not np.all(np.isfinite(d)):
        u, v = (int(x) for x in np.argwhere(~np.isfinite(d))[0])
        return MetricViolation("positivity", (u, v), f"non-finite distance d({u},{v})={d[u, v]}")
    # d[u,w] <= d[u,v] + d[v,w] for every triple, checked exhaustively over
    # blocks of consecutive u, so memory stays O(n^2) and the first violating
    # triple in lexicographic order is found in the first block that has one.
    block = max(1, TRIANGLE_BLOCK_TRIPLES // max(1, n * n))
    sums = np.empty((min(block, n), n, n))
    viol = np.empty(sums.shape, dtype=bool)
    for start in range(0, n, block):
        rows = d[start : start + block]
        k = len(rows)
        np.add(rows[:, :, None], d[None, :, :], out=sums[:k])
        np.greater(rows[:, None, :], sums[:k], out=viol[:k])
        if viol[:k].any():
            u, v, w = (int(x) for x in np.argwhere(viol[:k])[0])
            u += start
            return MetricViolation(
                "triangle",
                (u, v, w),
                f"triangle inequality fails for ({u},{v},{w}): "
                f"d({u},{w})={d[u, w]} > d({u},{v})+d({v},{w})={d[u, v] + d[v, w]}",
            )
    return None


def as_vertex_subset(indices: Iterable[int], n: int, allow_empty: bool = False) -> tuple[int, ...]:
    """Normalize an iterable of vertex indices to a strictly increasing tuple."""
    subset = tuple(sorted(int(v) for v in indices))
    if not subset and not allow_empty:
        raise ValueError("vertex subset must be nonempty")
    for i, v in enumerate(subset):
        if v < 0 or v >= n:
            raise ValueError(f"vertex index {v} out of range [0, {n})")
        if i > 0 and subset[i - 1] == v:
            raise ValueError(f"duplicate vertex index {v} in subset")
    return subset


def _pairwise_lp(points: np.ndarray, p: float) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    if points.shape[1] == 1:
        # 1-D distances are plain absolute differences for every p.
        d = np.abs(diff[..., 0])
    elif p == np.inf:
        d = np.abs(diff).max(axis=-1)
    elif p == 1.0:
        d = np.abs(diff).sum(axis=-1)
    elif p == 2.0:
        d = np.sqrt((diff * diff).sum(axis=-1))
    else:
        d = (np.abs(diff) ** p).sum(axis=-1) ** (1.0 / p)
    # Mirror the upper triangle so the matrix is exactly symmetric.
    upper = np.triu(d, 1)
    return upper + upper.T


@dataclass(frozen=True, eq=False)
class Metric:
    """An n-point metric with O(1) distance lookups.

    Use :meth:`euclidean` or :meth:`from_matrix` to construct one.
    """

    kind: str
    n: int
    p: float | None
    points: np.ndarray | None
    matrix: np.ndarray

    @staticmethod
    def euclidean(points, p: float = 2.0) -> "Metric":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"expected an (n, d) coordinate array, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("need at least one point")
        if not (p >= 1.0):
            raise ValueError(f"p must be >= 1 or inf, got {p}")
        d = _pairwise_lp(pts, float(p))
        n = pts.shape[0]
        zero = np.argwhere((d + np.eye(n)) == 0.0)
        if zero.size:
            u, v = (int(x) for x in zero[0])
            raise ValueError(f"points {u} and {v} coincide; distances must be positive")
        pts.setflags(write=False)
        d.setflags(write=False)
        return Metric(kind=EUCLIDEAN_LP, n=n, p=float(p), points=pts, matrix=d)

    @staticmethod
    def from_matrix(matrix) -> "Metric":
        d = np.asarray(matrix, dtype=float).copy()
        violation = validate_metric(d)
        if violation is not None:
            raise MetricError(violation)
        d.setflags(write=False)
        return Metric(kind=EXPLICIT_MATRIX, n=d.shape[0], p=None, points=None, matrix=d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Metric):
            return NotImplemented
        if self.kind != other.kind or self.n != other.n or self.p != other.p:
            return False
        if self.kind == EUCLIDEAN_LP:
            return np.array_equal(self.points, other.points)
        return np.array_equal(self.matrix, other.matrix)

    def distance(self, u: int, v: int) -> float:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u},{v}) out of range [0, {self.n})")
        return float(self.matrix[u, v])

    def diameter(self) -> float:
        """Largest pairwise distance; requires at least two points."""
        if self.n < 2:
            raise ValueError("diameter needs at least two points")
        return float(self.matrix.max())

    def min_distance(self) -> float:
        """Smallest positive pairwise distance; requires at least two points."""
        if self.n < 2:
            raise ValueError("min_distance needs at least two points")
        iu = np.triu_indices(self.n, 1)
        return float(self.matrix[iu].min())

    def induce(self, subset: Sequence[int]) -> tuple["Metric", tuple[int, ...]]:
        """Sub-metric on `subset`, plus the new-index -> old-index relabeling.

        Distances are unchanged: entry (i, j) of the result equals
        distance(subset[i], subset[j]) in the parent.
        """
        sub = as_vertex_subset(subset, self.n)
        if self.kind == EUCLIDEAN_LP:
            return Metric.euclidean(self.points[list(sub)], self.p), sub
        d = self.matrix[np.ix_(sub, sub)].copy()
        d.setflags(write=False)
        # A principal submatrix of a metric is a metric; skip revalidation.
        return Metric(kind=EXPLICIT_MATRIX, n=len(sub), p=None, points=None, matrix=d), sub
