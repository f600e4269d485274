"""Minimum-weight Hamiltonian paths.

Three providers:
  * exact Held-Karp dynamic programming over (visited set, last vertex)
    states, usable up to n = 18 and on non-complete graphs (absent edges are
    +inf). It runs one popcount layer of visited sets at a time. A finished
    layer k keeps, for each end vertex v, the values dp[T, v] of the
    C(n-1, k-1) sets T that contain v, in ascending mask order. Those sets
    are the sets of layer k-1 lacking v, with v added and in the same order,
    so each row is one column minimum over the last-but-one vertex u, read
    from layer k-1 expanded to n x C(n, k-1) with +inf where u is not in T.
    Which vertices lie in which set depends on n alone: the first solve at
    each n builds these membership masks for every layer, packed to one bit
    per entry (n * 2^n bits, 128 KiB at n = 16), and keeps them for the
    process; each solve unpacks one layer at a time.
    No parent table is kept: the path is rebuilt from the full set backward,
    the vertex before v in T being the first (smallest) u whose sum
    dp[T - v, u] + d[u, v] attains the minimum, the forward pass's own sums;
  * an MST-doubling 2-approximation for metrics: depth-first preorder of the
    minimum spanning tree with triangle-inequality shortcutting;
  * subsequence shortcutting of an existing path onto a vertex subset.

Path weights are always recomputed with math.fsum over consecutive distances,
so equal edge multisets give bit-identical weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .graph import Space
from .metric import Metric, as_vertex_subset

# At n = 18 the kept layers hold 18 * 2^17 float64 values (18 MiB) in all,
# the expanded layer at most 18 * C(18, 9) (6.7 MiB) and one endpoint's
# candidates 18 * C(17, 8) (3.3 MiB), and the membership bits kept per n take
# 576 KiB. A solve's traced peak is 25.2 MiB when it builds those bits and
# 24.6 MiB when an earlier solve did; at n = 16, 5.76 and 5.63 MiB.
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
    """math.fsum of the distances between consecutive vertices, read in one gather."""
    steps = np.asarray(order, dtype=np.intp)
    terms = space.matrix[steps[:-1], steps[1:]].tolist()
    if math.inf in terms:
        i = terms.index(math.inf)
        raise ValueError(f"path step ({order[i]},{order[i + 1]}) is not an edge of the graph")
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
    kept = [None, np.zeros(n)]  # kept[k]: row v is dp[T, v] over the k-sets T that hold v
    for k, packed in enumerate(_membership(n), 2):
        size = math.comb(n, k - 1)
        inside = np.unpackbits(packed, axis=1, count=size).view(bool)
        dp = np.full((n, size), np.inf)  # dp[u, i]: lightest path over the i-th (k-1)-set ending at u
        dp[inside] = kept[k - 1]
        rows = np.empty((n, math.comb(n - 1, k - 1)))
        cand = np.empty_like(rows)
        for v in range(n):
            # T -> T | {v} keeps the order of the sets lacking v; mode "clip"
            # (the indices are in range) lets take write to cand unbuffered
            dp.take((~inside[v]).nonzero()[0], axis=1, out=cand, mode="clip")
            cand += d[:, v, None]
            np.minimum.reduce(cand, axis=0, out=rows[v])
        del dp, cand
        kept.append(rows.ravel())
    last = int(kept[n].argmin())
    if not np.isfinite(kept[n][last]):
        raise ValueError("graph has no Hamiltonian path")
    order = [last]
    rest = ((1 << n) - 1) ^ (1 << last)
    weights = d.tolist()
    while rest:
        # the vertex before order[-1]: the u with the lightest dp[rest, u] + d[u, order[-1]],
        # the forward pass's own sums; min keeps the first, so ties go to the smallest u
        members = [w for w in range(n) if rest >> w & 1]
        order.append(min(members, key=lambda u: _kept_value(kept, n, members, u) + weights[u][order[-1]]))
        rest ^= 1 << order[-1]
    order = _canonical(order[::-1])
    return HamPath(order=order, weight=path_weight(space, order))


@lru_cache(maxsize=EXACT_LIMIT)  # n ranges over 2..EXACT_LIMIT
def _membership(n: int) -> tuple[np.ndarray, ...]:
    """The part of `exact_min_ham_path` that depends on n alone, built once per
    n: for each layer k = 2..n in turn, inside[u, i], whether vertex u lies in
    the i-th of the C(n, k-1) sets of k-1 vertices in ascending mask order,
    packed along each row by np.packbits and read-only. n * 2^n bits in all."""
    popcount = np.zeros(1, dtype=np.int8)  # of every mask below 2^n
    for _ in range(n):
        popcount = np.concatenate([popcount, popcount + 1])
    tables = []
    for k in range(2, n + 1):
        layer = np.flatnonzero(popcount == k - 1)
        inside = np.empty((n, layer.size), dtype=bool)
        for u in range(n):
            inside[u] = layer & (1 << u)
        packed = np.packbits(inside, axis=1)
        packed.flags.writeable = False
        tables.append(packed)
    return tuple(tables)


def _kept_value(kept: list, n: int, members: list[int], u: int) -> float:
    """dp[T, u] for the set T of the ascending `members`, which holds u: row u
    of T's kept layer, at the colex rank of T - {u} among the sets of the
    other n - 1 vertices (those above u shifted down by one)."""
    others = [w - (w > u) for w in members if w != u]
    rank = sum(math.comb(w, i) for i, w in enumerate(others, 1))
    return kept[len(members)][u * math.comb(n - 1, len(others)) + rank]


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

