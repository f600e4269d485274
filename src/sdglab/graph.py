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

A `Forest` is n and its edges in edge order, nothing else: being acyclic,
it has n minus its edge count components.

`dense_msf` computes the unique forest on a matrix for the builders (`mst`,
`disk.sdg_msf`): one pass gives every vertex its lightest edge, which joins
the vertices into fragments, and Prim then grows its trees a fragment at a
time. Edges sharing an endpoint compare as their other endpoints do, so it
keeps no code matrix: a vertex's least edge is looked up when it is chosen,
and kept as a code only while it ties with others at the least weight.
`is_msf` checks a given forest against the disk graph of a matrix and radii
by the cycle property in O(n^2) array work, for `verify_certificate`, which
thus checks every forest it is given (`sdglab verify` passes the builder's)
without building one, without the builder's code and without a masked copy
of the matrix: it tests min(r_u, r_v) >= d(u, v) itself, one row block at a
time.
`kruskal_msf`, Kruskal on a graph's edge view, is called by no library code:
it is the tests' oracle for both and a benchmark tracer target.

Every n x n pass of an evaluation, apart from Prim's row reads, runs over
`row_blocks`, so its only n x n float64 arrays are the metric's own and the
disk graph that `disk.sdg_matrix` masks for Prim.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .metric import Metric

Edge = tuple[int, int, float]  # (u, v, weight) with u < v

# Entries per row block of an n x n pass: a 512 KiB float64 block.
BLOCK_ENTRIES = 1 << 16


@lru_cache(maxsize=1024)
def row_blocks(count: int, width: int | None = None) -> tuple[slice, ...]:
    """Consecutive slices of range(count), each of about BLOCK_ENTRIES // width
    rows (width defaults to count: the rows of a square matrix). Cached, as
    small instances call it for every pass."""
    step = max(1, BLOCK_ENTRIES // max(1, count if width is None else width))
    return tuple(slice(a, min(a + step, count)) for a in range(0, count, step))


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
    """Acyclic spanning subgraph on vertices 0..n-1, as its edges in edge order."""

    n: int
    edges: tuple[Edge, ...]

    @property
    def weight(self) -> float:
        return math.fsum(w for _, _, w in self.edges)

    @property
    def num_components(self) -> int:
        return self.n - len(self.edges)

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
    return Forest(n=g.n, edges=tuple(kept))


def is_msf(d: np.ndarray, radii: np.ndarray, f: Forest) -> bool:
    """Whether f equals `kruskal_msf` of the disk graph of weight matrix d
    under radii: the graph of the finite entries d(u, v) with
    min(radii[u], radii[v]) >= d(u, v). With radii = np.full(n, np.inf) it is
    the graph d itself.

    +inf marks an absent edge, and only the upper triangle is read, as
    `WeightedGraph.edges` reads it. f must have d's n, canonical edges (u < v)
    in strictly ascending `edge_key` order, each in the disk graph with its
    matrix weight, and no cycle.

    Its edges are merged in that order. The edge that joins components A and
    B is the heaviest, in the total order, on every forest path between them,
    so its index is written into the A x B and B x A blocks of an int32
    matrix. By the cycle property f is then the MSF iff every disk-graph edge
    lies inside one component and is at least its path maximum in the order
    (weight, min * n + max), with equality only for the tree edge itself.
    That comparison runs over row blocks, each masked by its own radii test.
    Only the disk-graph edges no heavier than their path maximum (on a valid
    forest, the tree edges alone) are compared by code, so the index matrix
    is the only n x n array the check adds.
    """
    d = np.asarray(d, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = d.shape[0]
    if radii.shape != (n,):
        raise ValueError(f"{radii.size} radii for {n} vertices")
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
    rad = radii.tolist()
    for u, v, w in f.edges:
        if not (0 <= u < v < n and d[u, v] == w < math.inf and min(rad[u], rad[v]) >= w):
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
    pos = np.empty(n, dtype=np.intp)
    pos[[x for r in set(comp) for x in members[r]]] = np.arange(n)
    path_max = np.full((n, n), -1, dtype=np.int32)  # -1: different components
    for k, (first, size_a, size_b) in enumerate(merges):
        lo = int(pos[first])
        mid, hi = lo + size_a, lo + size_a + size_b
        path_max[lo:mid, mid:hi] = k
        path_max[mid:hi, lo:mid] = k
    # Index -1 reads weight +inf, so a present edge between two components fails.
    weight = np.array([w for _, _, w in f.edges] + [math.inf])
    code = np.array([u * n + v for u, v, _ in f.edges] + [-1])

    def block_holds(rows: slice) -> bool:
        # Entries (i, j) with j > i, for one block of rows i: the suspects are
        # those with d(i, j) <= min(path maximum, r_i, r_j). An absent entry
        # is a suspect only at path maximum +inf, where its code passes.
        g = d[rows, rows.start :]
        k = path_max[pos[rows, None], pos[rows.start :]]
        limit = np.minimum(weight[k], radii[rows, None])
        np.minimum(limit, radii[rows.start :], out=limit)
        i, j = (g <= limit).nonzero()
        above = i < j
        i, j = i[above], j[above]
        k = k[i, j]
        return bool(((g[i, j] == weight[k]) & ((i + rows.start) * n + j + rows.start >= code[k])).all())

    return all(block_holds(rows) for rows in row_blocks(n))


def dense_msf(d: np.ndarray) -> Forest:
    """Minimum spanning forest of a dense symmetric weight matrix.

    +inf marks an absent edge and the diagonal is ignored. Every edge is
    compared in the total order, so each one chosen is in the unique MSF by
    the cut property, and the result equals `kruskal_msf` of the same graph.
    Two steps, each O(n^2) array work in all:

    (1) Fragments. Each vertex's lightest edge is the first minimum of its row:
    edges (v, x) of equal weight compare as their other endpoints x do. It is
    the lightest edge across the cut ({v}, rest), so it is an MSF edge. Since
    no two edges tie in the total order, the only cycles of these hooks are
    mutual pairs, which keep the larger index's hook and are rooted at the
    smaller; pointer jumping then labels every vertex with its fragment's
    root.

    (2) Prim over fragments. A tree grows a whole fragment at a time, with
    one `np.minimum` per member row, and each outside vertex keeps only
    best_w, its lightest edge weight from the tree (NaN once it has joined,
    so it is never lowered again). The lightest edge across the cut
    (tree, rest) has the least weight w, and its endpoints are found only
    when it is chosen. If one vertex x has best_w == w, the edge is (s, x)
    with s the smallest tree vertex at weight w from x, since edges sharing
    x compare as their other endpoints. If several vertices tie, the edge is
    the least over the tied y of code[y], the code min * n + max of y's
    least edge at weight w. Each y keeps code[y] from its last tie, when the
    first seen[y] joined vertices had been read at weight seen_w[y]; best_w
    only falls, so code[y] still counts if best_w[y] == seen_w[y], and only
    the vertices joined since are read (the whole row, the first time y
    ties). No pair (y, joined vertex) is read twice, and no row is scanned
    twice, so all ties together cost O(n^2). With no finite edge left, Prim
    restarts at the smallest vertex not reached.

    Memory is O(n) arrays plus one block: about 2^16 entries for the row
    pass and a first tie's row scan, 2^14 for the other tie reads.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    idx = np.arange(n)
    hook, light = np.empty(n, dtype=idx.dtype), np.empty(n)
    gather = 1 << 14  # entries read per tie chunk, each held in about five arrays
    for rows in row_blocks(n):
        block = d[rows].copy()
        diag = np.arange(block.shape[0])
        block[diag, diag + rows.start] = np.inf
        first = block.argmin(axis=1)
        light[rows] = block[diag, first]
        hook[rows] = first
        del block  # so the next block's copy is the only one held
    hook = np.where(light < np.inf, hook, idx)  # an isolated vertex is its own root
    mutual = (hook[hook] == idx) & (idx < hook)
    hook[mutual] = idx[mutual]  # a mutual pair is rooted at its smaller vertex
    hooked = (hook != idx).nonzero()[0]
    edges = list(
        zip(
            np.minimum(hooked, hook[hooked]).tolist(),
            np.maximum(hooked, hook[hooked]).tolist(),
            light[hooked].tolist(),
        )
    )
    root = hook
    while True:
        jumped = root[root]
        if (jumped == root).all():
            break
        root = jumped
    order = np.argsort(root, kind="stable")
    fragment_start = np.searchsorted(root[order], idx).tolist()
    fragment_size = np.bincount(root, minlength=n).tolist()
    order, root = order.tolist(), root.tolist()

    best_w = np.full(n, np.inf)
    joined_order = np.empty(n, dtype=idx.dtype)
    # code[y]: y's least edge, as min * n + max, to the first seen[y] joined vertices at weight seen_w[y].
    none = n * n
    code, seen, seen_w = np.full(n, none, dtype=idx.dtype), np.zeros(n, dtype=idx.dtype), np.full(n, np.inf)
    joined = size = 0
    while joined < n:
        w = np.fmin.reduce(best_w)
        tied = (best_w == w).nonzero()[0]
        x = int(tied[0])
        if w == np.inf:
            pass  # no edge leaves the trees: a new one starts at x, the smallest vertex not reached
        elif tied.size == 1:
            s = int(((d[x] == w) & np.isnan(best_w)).argmax())
            edges.append((min(s, x), max(s, x), float(w)))
        else:
            # Read the vertices joined since each tied vertex was last tied: the
            # whole row of one never tied before, the fragment joined last in one
            # block when it is small, the rest in chunks.
            code[tied[seen_w[tied] != w]] = none
            before = seen[tied]
            span = joined - before
            if size * tied.size <= gather:
                last = joined_order[joined - size : joined]
                hit = d[last[:, None], tied] == w
                if hit.any():
                    a, b = hit.nonzero()
                    y = tied[b]
                    np.minimum.at(code, y, np.minimum(last[a], y) * n + np.maximum(last[a], y))
                span -= size
            never = before == 0
            span[never] = 0
            fresh = tied[never]
            for rows in row_blocks(fresh.size, n):
                t = fresh[rows]
                src = ((d[t] == w) & np.isnan(best_w)).argmax(axis=1)
                code[t] = np.minimum(src, t) * n + np.maximum(src, t)
            if span.any():
                rest = span.nonzero()[0]
                total = span[rest].cumsum()
                bounds = np.unique(np.r_[0, total.searchsorted(np.arange(gather, total[-1], gather)), rest.size])
                for begin, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                    part = rest[begin:end]
                    t, k = tied[part], span[part]
                    first = k.cumsum() - k
                    cols = joined_order[np.arange(first[-1] + k[-1]) - (first - seen[t]).repeat(k)]
                    src = np.minimum.reduceat(np.where(d[t.repeat(k), cols] == w, cols, n), first)
                    found = np.where(src < n, np.minimum(src, t) * n + np.maximum(src, t), none)
                    code[t] = np.minimum(code[t], found)
            seen[tied], seen_w[tied] = joined, w
            c = code[tied]
            i = int(c.argmin())
            x = int(tied[i])
            s = int(c[i]) // n + int(c[i]) % n - x
            edges.append((min(s, x), max(s, x), float(w)))
        r = root[x]
        members = order[fragment_start[r] : fragment_start[r] + fragment_size[r]]
        best_w[members] = np.nan
        joined_order[joined : joined + len(members)] = members
        for m in members:
            np.minimum(best_w, d[m], out=best_w)
        size = len(members)
        joined += size
    edges.sort(key=edge_key)
    return Forest(n=n, edges=tuple(edges))


def tree_path(adj: Sequence[dict[int, float]], u: int, v: int) -> list[Edge] | None:
    """Unique path between u and v in a forest adjacency; None if disconnected."""
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
