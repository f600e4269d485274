"""Minimum-weight Hamiltonian paths.

Three providers:
  * exact Held-Karp dynamic programming over (visited set, last vertex)
    states, usable up to n = 18 and on non-complete graphs (absent edges are
    +inf). It runs one popcount layer of visited sets at a time, stored as
    dp[u, rank of T]: every state (T, v) has the single predecessor set T
    minus v, so each state is written once, from a column minimum over the
    last-but-one vertex u. The parent is the first u attaining it (ties go to
    the smallest u). Only two layers of float64 values are held, n*C(n, k)
    each, beside the full n*2^n int8 parent table that rebuilds the path;
  * an MST-doubling 2-approximation for metrics: depth-first preorder of the
    minimum spanning tree with triangle-inequality shortcutting;
  * subsequence shortcutting of an existing path onto a vertex subset.

Path weights are always recomputed with math.fsum over consecutive distances,
so equal edge multisets give bit-identical weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Space
from .metric import Metric, as_vertex_subset

# 18 * 2^18 states: a 4.5 MiB int8 parent table, two float64 layers of at
# most 18 * C(18, 9) values (6.7 MiB) each, and one endpoint's candidates,
# 18 * C(17, 8) float64 values (3.3 MiB); the traced peak is 27 MiB.
EXACT_LIMIT = 18
EXACT_CUTOFF = 16  # mode "auto" solves exactly up to this many vertices
HAM_MODES = ("exact", "approx", "auto")


def solves_exactly(mode: str, n: int) -> bool:
    """Whether `mode` solves an n-vertex path exactly: "exact" always, "auto" up to EXACT_CUTOFF."""
    return mode == "exact" or (mode == "auto" and n <= EXACT_CUTOFF)


@dataclass(frozen=True)
class HamPath:
    """A vertex order with its weight."""

    order: tuple[int, ...]
    weight: float

    @property
    def n(self) -> int:
        return len(self.order)


def path_weight(space: Space, order: Sequence[int]) -> float:
    d = space.matrix
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
    d = space.matrix
    n = d.shape[0]
    if not 2 <= n <= EXACT_LIMIT:
        raise ValueError(f"exact solver supports 2 <= n <= {EXACT_LIMIT}, got n={n}")
    size = 1 << n
    popcount = np.zeros(1, dtype=np.int8)  # of every mask below 2^n
    for _ in range(n):
        popcount = np.concatenate([popcount, popcount + 1])
    rank = np.empty(size, dtype=np.int32)  # position of a mask within its layer
    parent = np.full((n, size), -1, dtype=np.int8)  # parent[v, T]: u before v
    first = (n - np.arange(n, dtype=np.uint8))[:, None]  # row u scores n - u
    layer = np.flatnonzero(popcount == 1)  # the masks 1 << v; dp column v is {v}
    dp = np.full((n, n), np.inf)  # dp[u, rank of T]: lightest path over T ending at u
    np.fill_diagonal(dp, 0.0)
    for k in range(2, n + 1):
        nxt_layer = np.flatnonzero(popcount == k)
        rank[nxt_layer] = np.arange(nxt_layer.size)
        nxt = np.full((n, nxt_layer.size), np.inf)
        for v in range(n):
            lacks = np.flatnonzero(((layer >> v) & 1) == 0)
            cand = dp.take(lacks, axis=1)
            cand += d[:, v, None]
            best = cand.min(axis=0)
            # the first u attaining the minimum scores highest; unreached
            # states (best = inf) get u = 0 but are never walked back through
            tie = (cand == best).view(np.uint8)
            tie *= first
            targets = layer[lacks] | (1 << v)
            nxt[v, rank[targets]] = best
            parent[v, targets] = n - tie.max(axis=0)
        layer, dp = nxt_layer, nxt
    full = size - 1
    last = int(dp[:, 0].argmin())
    if not np.isfinite(dp[last, 0]):
        raise ValueError("graph has no Hamiltonian path")
    order = []
    mask = full
    while last >= 0:
        order.append(last)
        prev = int(parent[last, mask])
        mask ^= 1 << last
        last = prev
    order.reverse()
    order = _canonical(order)
    return HamPath(order=order, weight=path_weight(space, order))


def approx_ham_path(m: Metric) -> HamPath:
    """Preorder of the metric's MST `m.mst` with shortcutting. By the triangle
    inequality the weight is at most twice the tree's, a 2-approximation."""
    if m.n < 2:
        raise ValueError("need at least two points")
    adj = m.mst.adjacency()
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
    return HamPath(order=order, weight=path_weight(m, order))


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
    return HamPath(order=order, weight=path_weight(m, order))

