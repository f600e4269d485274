"""Minimum-weight Hamiltonian paths.

Three providers:
  * exact bitmask dynamic programming over (visited set, last vertex) states,
    usable up to n = 18 and on non-complete graphs (absent edges are +inf);
  * an MST-doubling 2-approximation for metrics: depth-first preorder of the
    minimum spanning tree with triangle-inequality shortcutting;
  * subsequence shortcutting of an existing path onto a vertex subset.

Path weights are always recomputed with math.fsum over consecutive distances,
so equal edge multisets give bit-identical weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .graph import WeightedGraph, metric_mst
from .metric import Metric, as_vertex_subset

Space = Union[Metric, WeightedGraph]

EXACT_LIMIT = 18  # 2^18 * 18 DP states


@dataclass(frozen=True)
class HamPath:
    """A vertex order with its weight; `exact` marks a certified global minimum."""

    order: tuple[int, ...]
    weight: float
    exact: bool

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (min(a, b), max(a, b))
            for a, b in zip(self.order, self.order[1:])
        ]


def distance_matrix(space: Space) -> np.ndarray:
    """Pairwise weights; +inf marks absent edges of a non-complete graph."""
    if isinstance(space, Metric):
        return space.matrix
    return space.adjacency_matrix(absent=np.inf)


def path_weight(space: Space, order: Sequence[int]) -> float:
    d = distance_matrix(space)
    terms = [float(d[a, b]) for a, b in zip(order, order[1:])]
    if any(math.isinf(t) for t in terms):
        raise ValueError("order traverses a non-edge of the graph")
    return math.fsum(terms)


def _canonical(order: list[int]) -> tuple[int, ...]:
    # A path and its reverse weigh the same; fix the orientation.
    if order and order[-1] < order[0]:
        order = order[::-1]
    return tuple(order)


def exact_min_ham_path(space: Space) -> HamPath:
    """Global minimum-weight Hamiltonian path by subset DP; 2 <= n <= 18.

    Raises ValueError when a non-complete graph has no Hamiltonian path.
    """
    d = distance_matrix(space)
    n = d.shape[0]
    if not 2 <= n <= EXACT_LIMIT:
        raise ValueError(f"exact solver supports 2 <= n <= {EXACT_LIMIT}, got n={n}")
    size = 1 << n
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1, dtype=np.int8)
    idx = np.arange(n)
    for v in range(n):
        dp[1 << v, v] = 0.0
    for mask in range(1, size - 1):
        row = dp[mask]
        if not np.isfinite(row).any():
            continue
        outside = np.where(((mask >> idx) & 1) == 0)[0]
        cand = row[:, None] + d[:, outside]
        best = cand.min(axis=0)
        arg = cand.argmin(axis=0)
        targets = mask + (1 << outside)
        cur = dp[targets, outside]
        improved = best < cur
        if improved.any():
            dp[targets[improved], outside[improved]] = best[improved]
            parent[targets[improved], outside[improved]] = arg[improved]
    full = size - 1
    last = int(dp[full].argmin())
    if not np.isfinite(dp[full, last]):
        raise ValueError("graph has no Hamiltonian path")
    order = []
    mask = full
    while last >= 0:
        order.append(last)
        prev = int(parent[mask, last])
        mask ^= 1 << last
        last = prev
    order.reverse()
    order = _canonical(order)
    return HamPath(order=order, weight=path_weight(space, order), exact=True)


def approx_ham_path(m: Metric) -> HamPath:
    """MST preorder with shortcutting; weight is at most twice the MST weight."""
    if m.n < 2:
        raise ValueError("need at least two points")
    mst = metric_mst(m)
    adj = mst.adjacency()
    order = []
    stack = [0]
    seen = [False] * m.n
    while stack:
        x = stack.pop()
        if seen[x]:
            continue
        seen[x] = True
        order.append(x)
        for y in sorted(adj[x], reverse=True):
            if not seen[y]:
                stack.append(y)
    order = _canonical(order)
    return HamPath(order=order, weight=path_weight(m, order), exact=False)


def shortcut_path(m: Metric, h: HamPath, subset: Sequence[int]) -> HamPath:
    """Restrict a path to a vertex subset, reweighted by direct distances.

    The result visits the subset in the order the original path did; by the
    triangle inequality its weight never exceeds the original weight. It is a
    Hamiltonian path of the induced sub-metric but not necessarily minimal.
    """
    sub = set(as_vertex_subset(subset, m.n))
    order = tuple(v for v in h.order if v in sub)
    if len(order) != len(sub):
        raise ValueError("subset contains vertices missing from the path")
    return HamPath(order=order, weight=path_weight(m, order), exact=False)


def ham_path(space: Space, mode: str = "auto", exact_cutoff: int = 16) -> HamPath:
    """Dispatch between the exact and approximate providers.

    mode "auto" runs the exact solver up to `exact_cutoff` vertices and the
    MST-doubling approximation above it.
    """
    if mode not in ("exact", "approx", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    n = space.n
    if mode == "exact" or (mode == "auto" and n <= exact_cutoff):
        return exact_min_ham_path(space)
    if not isinstance(space, Metric):
        raise ValueError("approximate paths need a metric; use mode='exact' on graphs")
    return approx_ham_path(space)
