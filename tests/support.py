"""Independent oracles and random inputs shared across the test suite.

Everything here deliberately avoids the library's own algorithms: spanning
trees are enumerated and checked with plain BFS, Hamiltonian paths by full
permutation scan, cycles through networkx path enumeration, so that each
oracle validates the corresponding fast path rather than mirroring it.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from itertools import combinations, permutations, product

import numpy as np
import pytest

from sdglab import graph, metric
from sdglab.decomposition import (
    BoundViolationError,
    DecompositionCertificate,
    _ham_edges,
    _min_endpoint,
    _pairs,
)
from sdglab.graph import Edge, WeightedGraph, canonical_edge, edge_key
from sdglab.hamiltonian import EXACT_LIMIT, HamPath, _canonical, path_weight
from sdglab.metric import MetricViolation

_PERM_CACHE: dict[tuple[int, bool], np.ndarray] = {}


def kernel_paths():
    """Yields "arrays", then "lists": while the loop body runs, `dense_msf`
    and `is_msf` take that path for every n, as both cutoffs are moved below
    or past it. They are restored when the loop ends or its body raises."""
    for path, cutoff in (("arrays", -1), ("lists", math.inf)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "PRIM_LIST_CUTOFF", cutoff)
            patch.setattr(graph, "CHECK_LIST_CUTOFF", cutoff)
            yield path


def on_both_kernel_paths(test):
    """Runs the decorated test once per `kernel_paths` path, under its own name."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for _ in kernel_paths():
            test(*args, **kwargs)

    return run


def random_connected_graph(n: int, extra: int, rng: np.random.Generator) -> WeightedGraph:
    """Random tree plus `extra` chords; weights on a 2^-10 grid in [0.5, 2.5]."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = None
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pool)
    for u, v in pool[:extra]:
        edges[(u, v)] = None
    out = []
    for u, v in edges:
        w = 0.5 + float(rng.integers(0, 2049)) / 1024.0
        out.append((u, v, w))
    return WeightedGraph.from_edges(n, out)


def random_graph(n: int, m_edges: int, rng: np.random.Generator) -> WeightedGraph:
    """Random (possibly disconnected) graph with grid weights."""
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    out = []
    for u, v in pool[: min(m_edges, len(pool))]:
        w = 0.5 + float(rng.integers(0, 2049)) / 1024.0
        out.append((u, v, w))
    return WeightedGraph.from_edges(n, out)


def edge_pairs(g: WeightedGraph) -> frozenset[tuple[int, int]]:
    """The (u, v) pairs of a graph's edges, u < v."""
    return frozenset((u, v) for u, v, _ in g.edges)


def _covers_all(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == n


def brute_min_spanning_weight(g: WeightedGraph) -> float:
    """Minimum spanning tree weight of a connected graph by subset enumeration."""
    best = None
    for combo in combinations(g.edges, g.n - 1):
        if not _covers_all(g.n, combo):
            continue
        w = math.fsum(e[2] for e in combo)
        if best is None or w < best:
            best = w
    assert best is not None, "graph is not connected"
    return best


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    used = set()
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1 and leaf not in used:
                edges.append((min(leaf, v), max(leaf, v)))
                used.add(leaf)
                degree[v] -= 1
                break
    rest = [v for v in range(n) if degree[v] == 1 and v not in used]
    edges.append((min(rest), max(rest)))
    return edges


def cayley_min_tree_weight(matrix: np.ndarray) -> float:
    """Minimum spanning tree weight of a complete graph by enumerating all
    n^(n-2) labeled trees through their sequence encodings."""
    n = matrix.shape[0]
    best = None
    for seq in product(range(n), repeat=n - 2):
        w = math.fsum(float(matrix[u, v]) for u, v in prufer_decode(seq, n))
        if best is None or w < best:
            best = w
    return best


def permutation_min_path(matrix: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Minimum-weight Hamiltonian path by full permutation scan.

    Returns the argmin order (one representative per orientation pair) and its
    weight recomputed with fsum.
    """
    n = matrix.shape[0]
    key = (n, True)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(
            [p for p in permutations(range(n)) if p[0] < p[-1]], dtype=np.int64
        )
    perms = _PERM_CACHE[key]
    weights = matrix[perms[:, :-1], perms[:, 1:]].sum(axis=1)
    best = perms[int(weights.argmin())]
    order = tuple(int(v) for v in best)
    return order, math.fsum(float(matrix[a, b]) for a, b in zip(order, order[1:]))


def mask_loop_min_ham_path(space) -> HamPath:
    """The subset DP as one Python loop over all 2^n masks in numeric order.

    The reference for `exact_min_ham_path`: the same states, sums, tie-breaks
    and error, visited mask by mask instead of layer by layer.
    """
    d = space.matrix
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
    return HamPath(order=order, weight=path_weight(space, order))


def layered_argmin_min_ham_path(space) -> HamPath:
    """The subset DP one popcount layer at a time, mask-major, by row argmin.

    The reference for `exact_min_ham_path` at the sizes the mask loop is too
    slow for (n above ~13): the same states, sums, tie-breaks and error. A
    layer is stored as dp[rank of T, u]; each new endpoint v gathers the rows
    of the sets lacking v and takes the argmin over u, so ties go to the
    smallest u.
    """
    d = space.matrix
    n = d.shape[0]
    if not 2 <= n <= EXACT_LIMIT:
        raise ValueError(f"exact solver supports 2 <= n <= {EXACT_LIMIT}, got n={n}")
    size = 1 << n
    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        popcount = np.concatenate([popcount, popcount + 1])
    rank = np.empty(size, dtype=np.int32)
    parent = np.full((size, n), -1, dtype=np.int8)
    layer = np.flatnonzero(popcount == 1)
    dp = np.full((n, n), np.inf)
    np.fill_diagonal(dp, 0.0)
    for k in range(2, n + 1):
        nxt_layer = np.flatnonzero(popcount == k)
        rank[nxt_layer] = np.arange(nxt_layer.size)
        nxt = np.full((nxt_layer.size, n), np.inf)
        for v in range(n):
            lacks = ((layer >> v) & 1) == 0
            cand = dp[lacks]
            cand += d[:, v]
            arg = cand.argmin(axis=1)
            best = cand[np.arange(arg.size), arg]
            reached = best < np.inf
            targets = layer[lacks][reached] | (1 << v)
            nxt[rank[targets], v] = best[reached]
            parent[targets, v] = arg[reached]
        layer, dp = nxt_layer, nxt
    full = size - 1
    last = int(dp[0].argmin())
    if not np.isfinite(dp[0, last]):
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
    return HamPath(order=order, weight=path_weight(space, order))


def exhaustive_triangle_violation(d: np.ndarray) -> MetricViolation | None:
    """The triangle scan over every row, in blocks of consecutive rows.

    The reference for `validate_metric`'s scan, which skips the rows that its
    nearest-neighbour bound clears: on a matrix that passes the other axioms
    both must report the same first violating triple (u, v, w).
    """
    n = d.shape[0]
    block = max(1, metric.TRIANGLE_BLOCK_TRIPLES // max(1, n * n))
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


def scanned_metric_violation(matrix) -> MetricViolation | None:
    """`validate_metric`'s contract as plain scans, one per axiom in its order:
    symmetry, then the diagonal, then every pair for positivity, then every
    pair for finiteness, then every triple. Each scan reads the pairs (u, v)
    with u <= v in row-major order and reports the first that fails it.

    The reference for `validate_metric`, which reads its row extremes in place
    of the positivity and finiteness scans and runs them only on a matrix that
    fails one, and skips triangle rows that those extremes clear.
    """
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        return MetricViolation("shape", (), f"expected a square matrix, got shape {d.shape}")
    n = len(d)
    upper = [(u, v) for u in range(n) for v in range(u, n)]
    for u, v in upper:  # a NaN pair counts as symmetric; the finiteness scan names it
        a, b = float(d[u, v]), float(d[v, u])
        if a != b and not (math.isnan(a) and math.isnan(b)):
            message = f"asymmetric entries: d({u},{v})={d[u, v]} != d({v},{u})={d[v, u]}"
            return MetricViolation("symmetry", (u, v), message)
    for u in range(n):
        if d[u, u] != 0.0:
            return MetricViolation("diagonal", (u,), f"nonzero diagonal entry d({u},{u})={d[u, u]}")
    for u, v in upper:
        if u != v and d[u, v] <= 0.0:
            message = f"off-diagonal distance d({u},{v})={d[u, v]} is not positive"
            return MetricViolation("positivity", (u, v), message)
    for u, v in upper:
        if not math.isfinite(d[u, v]):
            return MetricViolation("positivity", (u, v), f"non-finite distance d({u},{v})={d[u, v]}")
    return exhaustive_triangle_violation(d)


def trailing_axis_lp(points: np.ndarray, p: float) -> np.ndarray:
    """l_p distances reduced over the trailing axis of an n x n x d difference
    array, then mirrored from the upper triangle.

    The construction `metric._pairwise_lp` replaced; for d <= 7 numpy reduces
    that axis left to right, so both must agree bit for bit there.
    """
    diff = points[:, None, :] - points[None, :, :]
    if points.shape[1] == 1:
        d = np.abs(diff[..., 0])
    elif p == np.inf:
        d = np.abs(diff).max(axis=-1)
    elif p == 1.0:
        d = np.abs(diff).sum(axis=-1)
    elif p == 2.0:
        d = np.sqrt((diff * diff).sum(axis=-1))
    else:
        d = (np.abs(diff) ** p).sum(axis=-1) ** (1.0 / p)
    upper = np.triu(d, 1)
    return upper + upper.T


def in_order_lp(points: np.ndarray, p: float) -> np.ndarray:
    """l_p distances with each pair's terms combined in a plain Python loop,
    left to right in coordinate order, as `metric`'s docstring documents.

    The terms and the root come from numpy's elementwise functions, because
    numpy's float64 power may differ from Python's float ** in the last bit;
    the loop pins only the order of the sum.
    """
    n = len(points)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            terms = np.abs(points[i] - points[j])
            if p == 2.0:
                terms = terms * terms
            elif p not in (1.0, math.inf):
                terms = terms**p
            total = 0.0
            for t in terms.tolist():
                total = max(total, t) if p == math.inf else total + t
            d[i, j] = total
    if p == 2.0:
        return np.sqrt(d)
    return d if p in (1.0, math.inf) else d ** (1.0 / p)


def all_cycles(g: WeightedGraph) -> list[frozenset]:
    """Every simple cycle of a small graph, as a frozenset of (u, v) pairs."""
    import networkx as nx

    base = nx.Graph()
    base.add_nodes_from(range(g.n))
    for u, v, _ in g.edges:
        base.add_edge(u, v)
    seen = set()
    for u, v, _ in g.edges:
        pruned = base.copy()
        pruned.remove_edge(u, v)
        for path in nx.all_simple_paths(pruned, u, v):
            pairs = [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
            seen.add(frozenset(pairs + [(u, v)]))
    return list(seen)


def dfs_tree_path(n: int, edges, src: int, dst: int) -> list[tuple[int, int]] | None:
    """Depth-first path search, independent of `tree_path`'s breadth-first walk."""
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    stack = [(src, -1, [])]
    while stack:
        x, prev, path = stack.pop()
        if x == dst:
            return path
        for y in adj[x]:
            if y != prev:
                stack.append((y, x, path + [(min(x, y), max(x, y))]))
    return None


def tree_path(adj, u: int, v: int) -> list[Edge] | None:
    """Unique path between u and v in a forest adjacency, by breadth-first
    search; None if disconnected."""
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


def bfs_decompose(p, h) -> DecompositionCertificate:
    """`decompose` as it ran before the rooted forest: each cycle exchange
    finds its cycle with a `tree_path` search over the running forest, and the
    path edges split through four filters. The reference for `decompose`,
    which must return an equal certificate."""
    ham_edges = sorted(_ham_edges(p.space.matrix, h), key=edge_key)
    n, r, f = p.space.n, p.r, p.msf
    forest_pairs = f.edge_pairs()
    ham_pairs = _pairs(ham_edges)
    e_prime = [e for e in ham_edges if min(r[e[0]], r[e[1]]) >= e[2]]
    e_dprime = [e for e in ham_edges if min(r[e[0]], r[e[1]]) < e[2]]
    e1 = [e for e in e_prime if (e[0], e[1]) in forest_pairs]
    e2 = [e for e in e_prime if (e[0], e[1]) not in forest_pairs]

    adj = f.adjacency()
    tilde_e2 = []
    for e in e2:
        path = tree_path(adj, e[0], e[1])
        if path is None:
            raise BoundViolationError("disk-graph edge spans two forest components")
        out = max((c for c in path if (c[0], c[1]) not in ham_pairs), key=edge_key)
        tilde_e2.append(out)
        del adj[out[0]][out[1]], adj[out[1]][out[0]]
        adj[e[0]][e[1]] = e[2]
        adj[e[1]][e[0]] = e[2]

    resid = f.adjacency()
    for u, v, _ in e1 + tilde_e2:
        del resid[u][v], resid[v][u]
    star_h = []
    star_f = []
    for e in e_dprime:
        me = _min_endpoint(e[:2], r.radii)
        if resid[me]:
            out = max((canonical_edge(me, x, w) for x, w in resid[me].items()), key=edge_key)
            star_h.append(e)
            star_f.append(out)
            del resid[out[0]][out[1]], resid[out[1]][out[0]]

    return DecompositionCertificate(
        n=n,
        e_prime=tuple(e_prime),
        e_dprime=tuple(e_dprime),
        e1=tuple(e1),
        e2=tuple(e2),
        tilde_e2=tuple(tilde_e2),
        star_h=tuple(star_h),
        star_f=tuple(star_f),
        tilde_e=tuple(sorted(e1 + tilde_e2 + star_f, key=edge_key)),
        isolated=tuple(v for v in range(n) if not resid[v]),
    )


def cycle_property_check(g: WeightedGraph, f) -> str | None:
    """MSF oracle by the cycle property: every edge of g outside the forest f
    must close a cycle with its forest path and be that cycle's maximal edge in
    the order (weight, min endpoint, max endpoint). Returns the first
    violation as a sentence, None when f passes."""
    forest_weight = {(u, v): w for u, v, w in f.edges}
    for u, v, w in g.edges:
        if (u, v) in forest_weight:
            continue
        path = dfs_tree_path(g.n, f.edges, u, v)
        if path is None:
            return f"non-forest edge ({u},{v}) connects two forest components"
        top = max((forest_weight[e], *e) for e in path)
        if top > (w, u, v):
            return (
                f"cycle through ({u},{v}) has maximal edge ({top[1]},{top[2]}) inside the forest"
            )
    return None


def shortest_path_closure(matrix: np.ndarray) -> np.ndarray:
    """Floyd-Warshall closure of a nonnegative symmetric weight matrix."""
    d = np.array(matrix, dtype=float)
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d
