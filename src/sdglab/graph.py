"""Spaces, weighted graphs and deterministic minimum spanning forests.

Every edge comparison in this package uses the total order
``(weight, min endpoint, max endpoint)``. Ties in weight are therefore broken
combinatorially, never by perturbing values, which makes the MSF unique and
every "maximum weight edge" selection deterministic.

A `Space` is a `Metric` or a `WeightedGraph` (the non-metric counterexamples
and disk graphs). It stores one thing, its dense read-only weight `matrix`
(zero diagonal, +inf marking an absent edge), and every layer reads only
`n` (the matrix's size), `matrix`, `mst` (the space's own minimum spanning
forest, computed once) and `is_metric` (whether the triangle inequality may
be used). A graph's `edges` is a sorted view of its matrix; `from_edges`
reads edge lists from outside the program.

`dense_msf` computes the unique forest by Prim on a matrix for the builders
(`mst`, `disk.sdg_msf`). `is_msf` checks a given forest by the cycle property
in O(n^2) array work, for `verify_certificate`, which thus checks every forest
it is given (`sdglab verify` passes Prim's) without building one and without
the builder's code. `kruskal_msf`, Kruskal on a graph's edge view, is called
by no library code: it is the tests' oracle for both and a benchmark tracer
target.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .metric import Metric

Edge = tuple[int, int, float]  # (u, v, weight) with u < v

def edge_key(e: Edge) -> tuple[float, int, int]:
    """Total order on edges: weight first, then endpoints."""
    return (e[2], e[0], e[1])


def canonical_edge(u: int, v: int, w: float) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v, float(w)) if u < v else (v, u, float(w))


class Space:
    """The members that a `Metric` and a `WeightedGraph` share."""

    matrix: np.ndarray  # n x n, symmetric, zero diagonal, +inf for an absent edge
    is_metric: bool  # whether the weights satisfy the triangle inequality

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def mst(self) -> Forest:
        """Minimum spanning forest of the space, by `dense_msf` on `matrix`."""
        return dense_msf(self.matrix)


@dataclass(frozen=True, eq=False)
class WeightedGraph(Space):
    """Weighted graph stored as its weight matrix; `edges` is a view of it."""

    matrix: np.ndarray
    is_metric = False

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @staticmethod
    def from_edges(n: int, edges: Iterable) -> WeightedGraph:
        """Graph on 0..n-1 from (u, v, w) triples; the first self-loop, out-of-range,
        repeated or non-finite edge in input order raises ValueError."""
        if n < 0:
            raise ValueError(f"graph n must be >= 0, got {n}")
        d = np.full((n, n), np.inf)
        np.fill_diagonal(d, 0.0)
        for u, v, w in edges:
            u, v, w = e = canonical_edge(int(u), int(v), w)
            if not (0 <= u and v < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            if d[u, v] != np.inf:  # every stored weight is finite
                raise ValueError(f"duplicate edge ({u},{v})")
            if not math.isfinite(w):
                raise ValueError(f"edge ({u},{v}) has non-finite weight {w}")
            d[u, v] = d[v, u] = w
        return WeightedGraph(d)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The finite upper-triangle entries as (u, v, w), sorted by `edge_key`."""
        iu, iv = np.nonzero(np.triu(self.matrix < np.inf, 1))
        w = self.matrix[iu, iv]
        order = np.lexsort((iv, iu, w))
        return tuple(zip(iu[order].tolist(), iv[order].tolist(), w[order].tolist()))

    @property
    def weight(self) -> float:
        return math.fsum(w for _, _, w in self.edges)


def complete_graph(m: Metric) -> WeightedGraph:
    """The complete graph on a metric's points, weighted by its distances."""
    return WeightedGraph(m.matrix)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


@dataclass(frozen=True)
class Forest:
    """Acyclic spanning subgraph with a component id (minimum member) per vertex."""

    n: int
    edges: tuple[Edge, ...]
    component: tuple[int, ...]

    def __post_init__(self):
        if len(self.component) != self.n:
            raise ValueError("component labels must cover every vertex")
        if len(self.edges) + self.num_components != self.n:
            raise ValueError("edge count must equal n minus the number of components")

    @property
    def weight(self) -> float:
        return math.fsum(w for _, _, w in self.edges)

    @property
    def num_components(self) -> int:
        return len(set(self.component))

    @property
    def connected(self) -> bool:
        return self.num_components == 1

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)

    def adjacency(self) -> list[dict[int, float]]:
        adj: list[dict[int, float]] = [dict() for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj

    def heaviest_incident(self) -> tuple[float, ...]:
        """Weight of each vertex's heaviest incident edge; 0.0 for isolated vertices."""
        out = [0.0] * self.n
        for u, v, w in self.edges:
            out[u] = max(out[u], w)
            out[v] = max(out[v], w)
        return tuple(out)


def _component_ids(n: int, uf: UnionFind) -> tuple[int, ...]:
    smallest: dict[int, int] = {}
    for v in range(n):
        root = uf.find(v)
        if root not in smallest or v < smallest[root]:
            smallest[root] = v
    return tuple(smallest[uf.find(v)] for v in range(n))


def kruskal_msf(g: WeightedGraph) -> Forest:
    """Minimum spanning forest by Kruskal over `g.edges`, already in edge order.

    No library code calls it: it is the oracle that tests hold `dense_msf` and
    `is_msf` to, and a benchmark tracer target.
    """
    uf = UnionFind(g.n)
    kept = []
    for e in g.edges:
        if uf.union(e[0], e[1]):
            kept.append(e)
    return Forest(n=g.n, edges=tuple(kept), component=_component_ids(g.n, uf))


def is_msf(d: np.ndarray, f: Forest) -> bool:
    """Whether f equals `kruskal_msf` of the graph with weight matrix d.

    +inf marks an absent edge, and only the upper triangle is read, as
    `WeightedGraph.edges` reads it. f must have d's n, canonical edges (u < v)
    in strictly ascending `edge_key` order, each present with its matrix
    weight, no cycle, and each component labelled by its minimum member.

    Its edges are merged in that order. The edge that joins components A and
    B is the heaviest, in the total order, on every forest path between them,
    so its index is written into the A x B and B x A blocks of an int32
    matrix. By the cycle property f is then the MSF iff every present edge
    lies inside one component and is at least its path maximum in the order
    (weight, min * n + max), with equality only for the tree edge itself.
    That comparison runs over blocks of rows, so the index matrix is the only
    n x n array the check adds.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    if f.n != n:
        return False
    keys = [edge_key(e) for e in f.edges]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    # Each component keeps its members as one list, and the larger list
    # absorbs the smaller. Every component that ever forms is then one
    # contiguous block of the final member order, so each merge writes two
    # rectangles of the index matrix in that order.
    comp = list(range(n))  # vertex -> the id of its component's list
    members = [[v] for v in range(n)]
    merges = []  # (first member of the larger list, its size, the other's size)
    for u, v, w in f.edges:
        if not (0 <= u < v < n and d[u, v] == w < math.inf):
            return False
        ra, rb = comp[u], comp[v]
        if ra == rb:
            return False
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        a, b = members[ra], members[rb]
        merges.append((a[0], len(a), len(b)))
        for x in b:
            comp[x] = ra
        a.extend(b)
    lowest = {r: min(members[r]) for r in set(comp)}
    if f.component != tuple(lowest[comp[v]] for v in range(n)):
        return False
    pos = np.empty(n, dtype=np.intp)
    pos[[x for r in lowest for x in members[r]]] = np.arange(n)
    path_max = np.full((n, n), -1, dtype=np.int32)  # -1: different components
    for k, (first, size_a, size_b) in enumerate(merges):
        lo = int(pos[first])
        mid, hi = lo + size_a, lo + size_a + size_b
        path_max[lo:mid, mid:hi] = k
        path_max[mid:hi, lo:mid] = k
    idx = np.arange(n, dtype=np.int32 if n * n < 2**31 else np.int64)
    # Index -1 reads weight +inf, which only an absent edge reaches.
    weight = np.array([w for _, _, w in f.edges] + [math.inf])
    code = np.array([u * n + v for u, v, _ in f.edges] + [-1], dtype=idx.dtype)
    # Entries (i, j) with j > i, one block of rows i at a time.
    step = max(1, (1 << 18) // max(1, n))
    for start in range(0, n, step):
        g = d[start : start + step, start:]
        i, j = idx[start : start + step, None], idx[start:]
        k = path_max[pos[start : start + step, None], pos[start:]]
        top_w, top_c = weight[k], code[k]
        if not ((g > top_w) | (g == top_w) & (i * n + j >= top_c) | (i >= j)).all():
            return False
    return True


def dense_msf(d: np.ndarray) -> Forest:
    """Minimum spanning forest of a dense symmetric weight matrix, by Prim.

    +inf marks an absent edge and the diagonal is ignored. Keys are compared
    exactly in the total order (weight, min endpoint, max endpoint), with the
    endpoint pair encoded as min * n + max, so the result equals `kruskal_msf`
    of the same graph: the same sorted edges and the same component labels.
    When no finite edge leaves the trees grown so far, Prim restarts at the
    smallest vertex not yet reached, the minimum member of its component.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    idx = np.arange(n)
    code = np.minimum.outer(idx, idx) * n + np.maximum.outer(idx, idx)
    # Lightest known edge from the grown trees to each vertex, NaN once the
    # vertex joins (NaN compares false, so it is never updated again). The
    # code stays -1 while no edge is known, so absent edges never tie-update.
    best_w = np.full(n, np.inf)
    best_c = np.full(n, -1)
    component = [0] * n
    edges = []
    root = 0
    for _ in range(n):
        w = np.fmin.reduce(best_w)
        tied = np.flatnonzero(best_w == w)
        v = int(tied[0]) if tied.size == 1 else int(tied[np.argmin(best_c[tied])])
        if w == np.inf:
            root = v
        else:
            c = int(best_c[v])
            edges.append((c // n, c % n, float(w)))
        component[v] = root
        best_w[v] = np.nan
        row, row_c = d[v], code[v]
        better = np.where(row == best_w, row_c < best_c, row < best_w)
        np.copyto(best_w, row, where=better)
        np.copyto(best_c, row_c, where=better)
    edges.sort(key=edge_key)
    return Forest(n=n, edges=tuple(edges), component=tuple(component))


def tree_path(adj: Sequence[dict[int, float]], u: int, v: int) -> list[Edge] | None:
    """Unique path between u and v in a forest adjacency; None if disconnected."""
    if u == v:
        return []
    parent: dict[int, int] = {u: u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if v not in parent:
        return None
    path = []
    x = v
    while x != u:
        px = parent[x]
        path.append(canonical_edge(px, x, adj[x][px]))
        x = px
    path.reverse()
    return path
