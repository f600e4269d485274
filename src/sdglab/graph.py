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
and given radii the disk graph's, masked by itself, for `disk.sdg_msf`):
the edges the caller already knows to be in the forest join into
fragments, and Prim starts from the largest, L, reading only the rows of
the vertices outside it. One pass over those rows gives each of them its
lightest edges, which join the vertices into fragments (the lightest one
at each vertex, then one Borůvka round), and Prim then grows its trees a
fragment at a time. Edges sharing an endpoint compare as their
other endpoints do, so it keeps no code matrix: a vertex's least edge is
looked up when it is chosen, and kept as a code only while it ties with
others at the least weight. Each tie reads, for every tied vertex, only the
vertices joined since it last tied, through one chunked gather.
`is_msf` checks a given forest against the disk graph of a matrix and radii
by the cycle property in O(n^2) array work, for `verify_certificate`, which
thus checks every forest it is given (`sdglab verify` passes the builder's)
without building one, without the builder's code and without a masked copy
of the matrix: it tests min(r_u, r_v) >= d(u, v) itself, one row block at a
time, keeps only the pairs that could beat their tree-path maximum, and reads
those maxima from a sparse table over the Kruskal merge order, so it needs
O(n log n) memory plus one block.
`kruskal_msf`, Kruskal on a graph's edge view, is called by no library code:
it is the tests' oracle for both and a benchmark tracer target. No path
search over a forest lives here: `decomposition.decompose` reads its cycles
from a rooted copy of the forest, and `Forest.adjacency` is the one walkable
form a forest offers.

Both kernels have two paths, chosen from n alone. Up to a cutoff
(`PRIM_LIST_CUTOFF`, `CHECK_LIST_CUTOFF`) numpy's fixed cost per call, not
the O(n^2) work, sets their price, so they read the matrix once through
`tolist()` and run on Python lists: `dense_msf` a vertex-at-a-time Prim,
`is_msf` a Kruskal of its own whose forest it compares with the given one.
Above the cutoffs the array code described above runs. Both paths compare
edges in the same total order, so they return the same forest and the same
verdict.

Every n x n pass of an evaluation, apart from Prim's row reads, runs over
`row_blocks`, so its only n x n float64 array is the metric's own. The one
other large array is the disk graph's rows that `dense_msf`'s first pass
writes for Prim, (n - |L|) x n: all but one row of n x n in a trace round,
whose induced metric holds no MST, and about half of them in an evaluation,
which starts from the MST the radii keep in part (none when they keep it
all). The list paths hold at most cutoff^2 Python floats, and test the
radii as they read.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .metric import Metric

Edge = tuple[int, int, float]  # (u, v, weight) with u < v

# Entries per row block of an n x n pass: a 512 KiB float64 block.
BLOCK_ENTRIES = 1 << 16

# `dense_msf` and `is_msf` run on Python lists up to this many vertices, and
# on arrays above, each cutoff at or below its kernel's measured crossover on
# standard-suite inputs: between n = 45 and 64 for the builder, between 23
# and 32 for the checker (BENCH_24.json).
PRIM_LIST_CUTOFF = 48
CHECK_LIST_CUTOFF = 24

# Entries per chunk that `_mask_disk` masks at a time, and pairs per chunk of
# `dense_msf`'s one tie read: their few temporaries then stay in cache (for
# the mask, 2^14 was fastest of 2^12..2^16 at n = 512 and 2048).
MASK_ENTRIES = 1 << 14

# `dense_msf` keeps each outside vertex's NEAREST lightest edges from its row
# pass for one Borůvka round (`_merge_by_nearest`), which it runs when more
# than BORUVKA_MIN fragments have an outside root: a round costs about as much
# as 15 to 20 of Prim's steps and halves the fragments or better. On the
# benchmark's n = 512 matrices NEAREST = 3 decides the lightest leaving edge
# of 80-95 % of the fragments (156 -> 59 on one), and the extra minima and
# the round take 0.2 ms (9 %) off the plain MST and a disk graph without
# known edges.
NEAREST = 3
BORUVKA_MIN = 32


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def check_planned_peak(n: int) -> None:
    """Raises ValueError before an n x n float64 array is made for n points
    if the planned peak, 2 * 8 * n^2 bytes (the space's matrix and at most
    n x n disk-graph rows in `dense_msf`), exceeds physical memory: refused
    with a message rather than granted and then killed for lack of memory."""
    planned, limit = 2 * 8 * n * n, physical_memory()
    if limit is not None and planned > limit:
        raise ValueError(
            f"n = {n} plans a peak of {planned} bytes (two n x n float64 arrays), "
            f"more than the {limit} bytes of physical memory"
        )


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
        check_planned_peak(n)
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
    """Disjoint sets of 0..n-1 as a forest of parent links, with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def join(self, edges: Iterable[Sequence]) -> list:
        """The edges (u, v, ...) that join two sets, in order, each joining
        them: `union` over the edges, in one loop, as `dense_msf` joins
        hundreds of edges per call."""
        parent, kept = self.parent, []
        for e in edges:
            a, b = e[0], e[1]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                kept.append(e)
        return kept


@dataclass(frozen=True)
class Forest:
    """Acyclic spanning subgraph on vertices 0..n-1, as its edges in edge order."""

    n: int
    edges: tuple[Edge, ...]

    @cached_property
    def weight(self) -> float:
        """fsum of the edge weights, kept: an evaluation reads a forest's
        weight several times."""
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
        for u, v, w in self.edges:  # comparisons, not max(): this runs once per edge
            if w > out[u]:
                out[u] = w
            if w > out[v]:
                out[v] = w
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
    under radii, the finite entries d(u, v) <= min(radii[u], radii[v]) (with
    radii = np.full(n, np.inf), the graph d itself).

    +inf marks an absent edge, and only the upper triangle is read, as
    `WeightedGraph.edges` reads it. f must have d's n, canonical edges (u < v)
    in strictly ascending `edge_key` order, each in the disk graph with its
    matrix weight, and no cycle.

    Its edges are merged in that order. Every component that ever forms is a
    run of the final member order, and the merge joining A and B is the
    heaviest edge (in the total order) on every forest path between them, so
    with seam[p] the merge joining positions p and p + 1 (len(f.edges), of
    weight +inf, if none) a pair's path maximum is the largest seam between
    its positions, read from a sparse table. By the cycle property f is the
    MSF iff every disk-graph edge lies in one component and is at least its
    path maximum in the order (weight, min * n + max), equal only for the tree
    edge itself. One row-block scan keeps the pairs that can fail, d(u, v) <=
    min(r_u, r_v, max(cap_u, cap_v)) with cap the heaviest tree edge of the
    largest component on its vertices and +inf elsewhere, so no pair across
    components is dropped. Memory: O(n log n) plus one block.

    Up to CHECK_LIST_CUTOFF vertices, where this array code costs more than
    its O(n^2) work (crossover measured between n = 23 and 32), it instead
    runs Kruskal on Python lists, its own and not the builder's or the tests'
    oracle, and compares the forest with f (`_kruskal_check_on_lists`).
    """
    d = np.asarray(d, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = d.shape[0]
    if radii.shape != (n,):
        raise ValueError(f"{radii.size} radii for {n} vertices")
    if f.n != n:
        return False
    if n <= CHECK_LIST_CUTOFF:
        return _kruskal_check_on_lists(d.tolist(), radii.tolist(), f.edges)
    keys = [edge_key(e) for e in f.edges]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    comp = list(range(n))  # vertex -> the id of its component's list
    members = [[v] for v in range(n)]  # a component's list absorbs the smaller one it merges with
    heads = []  # per merge, the first member of the absorbed list: its seam lies just before it
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
        heads.append(b[0])
        for x in b:
            comp[x] = ra
        a.extend(b)
    roots = sorted(set(comp), key=lambda c: len(members[c]), reverse=True)  # the largest first
    pos = np.empty(n, dtype=np.intp)  # vertex -> its position
    pos[[x for c in roots for x in members[c]]] = np.arange(n)
    seam = np.full((max(1, (n - 1).bit_length()), max(0, n - 1)), len(heads))  # row l: max of 2^l seams
    seam[0, pos[heads] - 1] = np.arange(len(heads))
    for level in range(1, len(seam)):
        half = 1 << (level - 1)
        np.maximum(seam[level - 1, :-half], seam[level - 1, half:], out=seam[level, :-half])
    weight = np.array([w for _, _, w in f.edges] + [math.inf])
    code = np.array([u * n + v for u, v, _ in f.edges] + [-1])  # so +inf pairs across components pass
    size = len(members[roots[0]]) if n else 0
    top = next((w for u, _, w in reversed(f.edges) if comp[u] == roots[0]), math.inf)
    outside = pos >= size
    cap = np.where(outside, radii, np.minimum(radii, top))

    def block_holds(rows: slice) -> bool:
        s = rows.start
        limit = np.minimum(radii[rows, None], cap[s:])
        if size < n and (free := outside[rows]).any():  # rows whose pairs are never capped
            limit[free] = np.minimum(radii[rows][free, None], radii[s:])
        i, j = np.divmod((d[rows, s:] <= limit).ravel().nonzero()[0], n - s)
        above = i < j
        i, j = i[above] + s, j[above] + s
        g, a, b = d[i, j], np.minimum(pos[i], pos[j]), np.maximum(pos[i], pos[j])
        level = np.frexp(b - a)[1] - 1
        k = np.maximum(seam[level, a], seam[level, b - (1 << level)])
        w = weight[k]
        return bool(((g > w) | ((g == w) & (i * n + j >= code[k]))).all())

    return all(block_holds(rows) for rows in row_blocks(n))


def _kruskal_check_on_lists(rows: list[list[float]], rad: list[float], edges: Sequence[Edge]) -> bool:
    """`is_msf`'s list path: whether edges, as a tuple, equals the forest that
    Kruskal keeps from the upper-triangle pairs with d(u, v) < +inf and
    d(u, v) <= min(r_u, r_v), taken in the order (weight, u, v). It shares no
    code with `dense_msf` or `kruskal_msf`, so the verifier re-derives the
    forest on its own."""
    n = len(rows)
    pairs = sorted(
        (w, u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (w := rows[u][v]) < math.inf and w <= rad[u] and w <= rad[v]
    )
    parent = list(range(n))  # union-find with path halving
    kept = []
    for w, u, v in pairs:
        a, b = u, v
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            kept.append((u, v, w))
    return tuple(kept) == tuple(edges)


def _mask_disk(block: np.ndarray, rows_radii: np.ndarray, radii: np.ndarray) -> None:
    """Sets to +inf, in place, the entries of block outside the disk graph:
    those with min(r_u, r_v) < d(u, v), for rows with rows_radii and columns
    with radii, a chunk of MASK_ENTRIES at a time into one buffer. Branch-
    free: the test writes 1.0 (cut) or 0.0 (kept) into the chunk's radius
    minima, which times +inf is +inf or NaN, and `np.fmax` keeps d(u, v)
    against NaN. For radii that are not NaN it cuts exactly
    what (r_u < d) | (r_v < d) cuts, in 0.16 ms per 2^16 entries against
    0.40 ms for `np.copyto(..., where=)` on that test (n = 512)."""
    step = max(1, MASK_ENTRIES // block.shape[1])
    buffer = np.empty((min(step, len(block)), block.shape[1]))
    with np.errstate(invalid="ignore"):  # 0 * inf is NaN, on purpose
        for start in range(0, len(block), step):
            part = block[start : start + step]
            cut = buffer[: len(part)]
            np.copyto(cut, radii)
            np.minimum(cut, rows_radii[start : start + step, None], out=cut)
            np.less(cut, part, out=cut)  # 1.0 where cut, 0.0 where kept
            cut *= np.inf  # +inf where cut, NaN where kept
            np.fmax(cut, part, out=part)


def _trees(n: int, edges: Iterable[Sequence]) -> tuple[list, np.ndarray]:
    """The edges (u, v, ...) that join two trees of the forest they grow on
    0..n-1, in order, and each vertex's tree root."""
    uf = UnionFind(n)
    kept = uf.join(edges)
    return kept, (_jump(np.array(uf.parent)) if kept else np.arange(n))


def _jump(pointers: np.ndarray) -> np.ndarray:
    """The root of each element of a forest of pointers (a root points to
    itself), by pointer jumping."""
    while True:
        jumped = pointers[pointers]
        if (jumped == pointers).all():
            return pointers
        pointers = jumped


def _merge_by_nearest(root: np.ndarray, outside: np.ndarray, near_c: np.ndarray, near_w: np.ndarray, top) -> list:
    """One Borůvka round: the fragments labelled by root (relabelled in
    place) join across their lightest leaving edges where the recorded edges
    decide them, and those edges are returned.

    Row i of near_c and near_w holds outside[i]'s NEAREST first edges in the
    order of the edges at that vertex (weight, then other endpoint), which
    agrees with the total order. So its first recorded edge that leaves its
    fragment is its lightest leaving edge, and a vertex with none has only
    leaving edges that weigh at least its last recorded weight (+inf if its
    row ran out). A fragment's least candidate, in the total order, is then
    its lightest leaving edge, an MSF edge by the cut property, if it weighs
    less than every member's bound; the fragment `top`, which holds L and so
    vertices without rows, stays as it is. Since no two edges tie, the only
    cycles of fragment pointers are mutual pairs, whose two edges are one.
    """
    own = root[outside]
    w, x = np.full(outside.size, np.inf), outside.copy()
    bound = near_w[:, -1].copy()
    for j in range(near_c.shape[1] - 1, -1, -1):  # the last write is the first recorded edge that leaves
        leaves = (root[near_c[:, j]] != own) & (near_w[:, j] < np.inf)
        w[leaves], x[leaves], bound[leaves] = near_w[leaves, j], near_c[leaves, j], np.inf
    order = np.lexsort((np.minimum(outside, x) * root.size + np.maximum(outside, x), w, own))
    starts = np.flatnonzero(np.r_[True, own[order[1:]] != own[order[:-1]]])  # each fragment's least candidate
    best = order[starts]
    best = best[(w[best] < np.minimum.reduceat(bound[order], starts)) & (own[best] != top)]
    del order, starts, bound  # this round sets dense_msf's peak when L is one vertex
    idx = np.arange(root.size)
    pointer = idx.copy()
    pointer[own[best]] = root[x[best]]
    mutual = (pointer[pointer] == idx) & (idx < pointer)
    pointer[mutual] = idx[mutual]  # rooted at the smaller label, keeping the larger's edge
    best = best[pointer[own[best]] != own[best]]
    root[:] = _jump(pointer)[root]
    u, v = outside[best], x[best]
    return list(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist(), w[best].tolist()))


def dense_msf(d: np.ndarray, known: Sequence[Edge] = (), *, radii: Sequence[float] | None = None) -> Forest:
    """Minimum spanning forest of a dense symmetric weight matrix, or with
    radii, of its disk graph: the entries with d(u, v) <= min(r_u, r_v).

    +inf marks an absent edge and the diagonal is ignored. Every edge is
    compared in the total order, so each one chosen is in the unique MSF by
    the cut property, and the result equals `kruskal_msf` of the same graph
    (with radii, of `disk.build_sdg`'s graph).
    `known` lists edges (u, v, d(u, v)) that the caller knows to be in that
    MSF (`disk.sdg_msf` passes the space's MST edges that its radii keep);
    they are taken unchecked, and a wrong one gives a wrong forest.
    Three steps, each O(n^2) array work in all:

    (1) The start. Union-find joins the known edges into fragments, and L,
    the largest, is where Prim starts; with no known edge, L is vertex 0,
    where Prim would start anyway. No row of L is read from here on: only
    the n - |L| vertices outside L have rows, and with radii only theirs are
    written, into one (n - |L|) x n disk-graph array.

    (2) Fragments. One pass over the outside rows, a row block at a time
    (with radii, `_mask_disk` masks each block as it is written), takes each
    outside vertex's least weight to L and its lightest edge, the first
    minimum of its row: edges (v, x) of equal weight compare as their other
    endpoints x do. That edge is the lightest across the cut ({v}, rest), so
    it is an MSF edge. Since no two edges tie in the total order, the only
    cycles of these hooks are mutual pairs, which keep the larger index's
    hook and are rooted at the smaller; L's vertices point to its root, and
    pointer jumping labels every vertex with its fragment's root. A hook is
    kept as an edge unless it repeats a known edge (both ends in one known
    fragment: as all lie in the MSF, any other edge there would close a
    cycle). The known fragments outside L then merge the hook fragments
    they meet, by union-find over the roots. When more than 3 * BORUVKA_MIN
    known trees (single vertices included) lie outside L, the same pass
    keeps each outside row's NEAREST first minima, and if more than
    BORUVKA_MIN fragments remain, one Borůvka round (`_merge_by_nearest`)
    joins each fragment whose lightest leaving edge these decide. The
    fragment that holds L is the first tree.

    (3) Prim over fragments. A tree grows a whole fragment at a time, with
    one `np.minimum` per member row, and each outside vertex keeps only
    best_w, its lightest edge weight from the tree (NaN once it has joined,
    so it is never lowered again): at the start, its least weight to L and
    to the first tree's outside members. The lightest edge across the cut
    (tree, rest) has the least weight w, and its endpoints are found only
    when it is chosen. If one vertex x has best_w == w, the edge is (s, x)
    with s the smallest tree vertex at weight w from x, since edges sharing
    x compare as their other endpoints. If several vertices tie, the edge is
    the least over the tied y of code[y], the code min * n + max of y's
    least edge at weight w. Each y keeps code[y] from its last tie, when the
    first seen[y] joined vertices had been read at weight seen_w[y]; best_w
    only falls, so code[y] still counts if best_w[y] == seen_w[y], and only
    the vertices joined since are read (all of them, the first time y ties).
    One gather reads these pairs for every tied y, in joined order, a chunk
    of about MASK_ENTRIES pairs at a time. No pair (y, joined vertex) is
    read twice, so all ties together cost O(n^2). A vertex not yet joined lies
    outside L, so every read is from its own row: by symmetry, its entry
    for a joined vertex is that vertex's entry for it. With no finite edge
    left, Prim restarts at the smallest vertex not reached.

    Memory is O(n) arrays (NEAREST entries per vertex for the Borůvka
    round, freed before Prim) plus one block: about 2^16 entries for the row
    pass, and for the mask and a chunk of tie reads MASK_ENTRIES (2^14); a
    chunk exceeds that by at most one vertex's span, under n pairs. With
    radii add the disk graph's (n - |L|) x n array: masking every
    row as Prim reads it instead would cost more than the one masked copy
    (at n = 512, 512 row reads took 0.4 ms plain and 3.3 ms masked on both
    radii).

    Up to PRIM_LIST_CUTOFF vertices, where these steps' set-up and per-step
    numpy calls cost more than their O(n^2) work (crossover measured between
    n = 45 and 64), `_prim_on_lists` runs instead, on the matrix read once
    into at most PRIM_LIST_CUTOFF^2 Python floats, testing the radii as it
    goes. It needs no `known` edges, which seed only the steps above: the
    forest is the same without them.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    if n <= PRIM_LIST_CUTOFF or n == 0:  # the arrays below need a vertex to start from
        return _prim_on_lists(d.tolist(), radii)
    idx = np.arange(n)
    edges, comp = _trees(n, known)  # the known fragments, each labelled by its root
    top = int(np.bincount(comp).argmax())  # the root of L (vertex 0 if no edge is known)
    in_l = (comp == top).nonzero()[0]
    outside = (comp != top).nonzero()[0]
    count = outside.size
    if radii is None:
        rows_of = idx  # Prim reads d's own rows
    else:
        radii = np.asarray(radii, dtype=float)
        rows_of = np.zeros(n, dtype=outside.dtype)  # L's vertices have no row
        rows_of[outside] = np.arange(count)
        d, source = np.empty((count, n)), d  # the disk graph's outside rows, written below a block at a time
    hook, to_l = np.where(comp == top, top, idx), np.empty(count)
    # Hooks only merge the known trees outside L (single vertices included),
    # to about a third as many fragments where none is known (0.26-0.32 of
    # the vertices at n = 512): with fewer trees than three rounds' worth,
    # each row keeps its lightest edge alone.
    nearest = NEAREST if np.count_nonzero(comp[outside] == outside) > 3 * BORUVKA_MIN else 1
    near_c, near_w = np.empty((count, nearest), dtype=np.int32), np.empty((count, nearest))  # columns fit in int32
    for rows in row_blocks(count, n):
        vs = outside[rows]
        if radii is None:
            block = d.take(vs, axis=0)
        else:  # Prim never reads the diagonal set to +inf below
            block = d[rows]
            source.take(vs, axis=0, out=block, mode="clip")  # "raise" would buffer a copy
            _mask_disk(block, radii[vs], radii)
        to_l[rows] = block.take(in_l, axis=1).min(axis=1)
        diag = np.arange(block.shape[0])
        block[diag, vs] = np.inf
        cols, weights = near_c[rows], near_w[rows]
        for j in range(nearest):  # each row's first minima, taken out one by one
            cols[:, j] = block.argmin(axis=1)
            weights[:, j] = block[diag, cols[:, j]]
            block[diag, cols[:, j]] = np.inf
        if radii is not None:  # put back for Prim, which reads the disk graph's rows; these columns are distinct
            i, j = (weights < np.inf).nonzero()
            block[i, cols[i, j]] = weights[i, j]
        hook[vs] = np.where(weights[:, 0] < np.inf, cols[:, 0], vs)  # an isolated vertex is its own root
        del block, cols, weights  # the next block's copy is the only one held, and no view outlives near_*
    mutual = (hook[hook] == idx) & (idx < hook)
    hook[mutual] = idx[mutual]  # a mutual pair is rooted at its smaller vertex
    ends = hook[outside]
    new = (ends != outside) & (comp[outside] != comp[ends])  # not a known edge
    lo, hi = np.minimum(outside, ends)[new], np.maximum(outside, ends)[new]
    edges += zip(lo.tolist(), hi.tolist(), near_w[new, 0].tolist())
    root = _jump(hook)
    here, there = root[outside], root[comp[outside]]
    apart = (here != there).nonzero()[0]
    if apart.size:  # known edges outside L join hook fragments
        root = _trees(n, zip(here[apart].tolist(), there[apart].tolist()))[1][root]
    if np.count_nonzero(root[outside] == outside) > BORUVKA_MIN:
        edges += _merge_by_nearest(root, outside, near_c, near_w, root[top])
    del near_c, near_w  # O(n), but held through Prim they would set the peak
    top = root[top]  # the first tree: L and the fragments that joined it
    start = (root == top).nonzero()[0]

    best_w = np.full(n, np.inf)
    best_w[outside] = to_l
    best_w[start] = np.nan
    for row in rows_of[outside[root[outside] == top]].tolist():
        np.minimum(best_w, d[row], out=best_w)
    joined_order = np.empty(n, dtype=outside.dtype)
    joined_order[: start.size] = start
    joined = start.size
    order = np.argsort(root, kind="stable")  # the vertices fragment by fragment
    fragment_start = np.searchsorted(root[order], idx)
    fragment_end = np.searchsorted(root[order], idx, side="right")
    order_rows = rows_of[order]
    # code[y]: y's least edge, as min * n + max, to the first seen[y] joined vertices at weight seen_w[y].
    none = n * n
    code, seen, seen_w = np.full(n, none, dtype=outside.dtype), np.zeros(n, dtype=outside.dtype), np.full(n, np.inf)
    while joined < n:
        w = np.fmin.reduce(best_w)
        tied = (best_w == w).nonzero()[0]
        x = int(tied[0])
        if w == np.inf:
            pass  # no edge leaves the trees: a new one starts at x, the smallest vertex not reached
        elif tied.size == 1:
            s = int(((d[rows_of[x]] == w) & np.isnan(best_w)).argmax())
            edges.append((min(s, x), max(s, x), float(w)))
        else:
            # Read the vertices joined since each tied vertex was last tied (all
            # of them the first time), about MASK_ENTRIES pairs per chunk.
            code[tied[seen_w[tied] != w]] = none
            span = joined - seen[tied]  # at least 1: the last step joined a vertex
            total = span.cumsum()
            cuts = total.searchsorted(np.arange(MASK_ENTRIES, total[-1], MASK_ENTRIES))
            bounds = np.unique(np.r_[0, cuts, tied.size])
            for begin, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                t, k = tied[begin:end], span[begin:end]
                first = k.cumsum() - k
                cols = joined_order[np.arange(first[-1] + k[-1]) - (first - seen[t]).repeat(k)]
                src = np.minimum.reduceat(np.where(d[rows_of[t].repeat(k), cols] == w, cols, n), first)
                found = np.where(src < n, np.minimum(src, t) * n + np.maximum(src, t), none)
                code[t] = np.minimum(code[t], found)
            seen[tied], seen_w[tied] = joined, w
            c = code[tied]
            i = int(c.argmin())
            x = int(tied[i])
            s = int(c[i]) // n + int(c[i]) % n - x
            edges.append((min(s, x), max(s, x), float(w)))
        r = root[x]
        lo, hi = fragment_start[r], fragment_end[r]
        members = order[lo:hi]
        best_w[members] = np.nan
        joined_order[joined : joined + len(members)] = members
        for row in order_rows[lo:hi].tolist():
            np.minimum(best_w, d[row], out=best_w)
        joined += len(members)
    del d  # with radii the disk graph's rows, freed before the edges are sorted
    edges.sort(key=edge_key)
    return Forest(n=n, edges=tuple(edges))


def _prim_on_lists(rows: list[list[float]], rad: Sequence[float] | None) -> Forest:
    """`dense_msf`'s list path: Prim a vertex at a time on the matrix rows,
    over the edges with d(x, y) <= min(rad[x], rad[y]), or all of them
    without radii.

    Each outside vertex y keeps best[y], its lightest edge weight to the tree,
    and src[y], that edge's tree end. A joining vertex x replaces it by a
    lighter edge, or by an equal one when x < src[y], since edges sharing y
    compare as their other endpoints; the radii are tested only then, as few
    row entries pass that test. The same pass finds the next vertex, the
    least in (weight, min endpoint, max endpoint), and with no finite edge
    left a new tree starts at the smallest vertex not reached.
    """
    n = len(rows)
    inf = math.inf  # a local: read for every vertex
    best = [inf] * n
    src = [n] * n
    rest = list(range(n))  # the vertices not reached, ascending
    edges = []
    x = 0
    while rest:
        rest.remove(x)
        row, rx = rows[x], (inf if rad is None else rad[x])
        w = inf
        for y in rest:  # each test starts with one comparison that most y fail
            b, dy = best[y], row[y]
            if dy <= b and (dy < b or x < src[y] and b < inf) and (rad is None or dy <= rx and dy <= rad[y]):
                best[y] = b = dy
                src[y] = x
            if b <= w:
                if b < w:
                    w, nxt = b, y
                elif w < inf:
                    s, t = src[y], src[nxt]
                    if (min(y, s), max(y, s)) < (min(nxt, t), max(nxt, t)):
                        nxt = y
        if w < inf:
            x, s = nxt, src[nxt]
            edges.append((s, x, w) if s < x else (x, s, w))
        elif rest:
            x = rest[0]
    edges.sort(key=edge_key)
    return Forest(n=n, edges=tuple(edges))
