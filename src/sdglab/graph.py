"""Weighted graphs, deterministic minimum spanning forests, tree parameters.

Every edge comparison in this package uses the total order
``(weight, min endpoint, max endpoint)``. Ties in weight are therefore broken
combinatorially, never by perturbing values, which makes the MSF unique and
every "maximum weight edge" selection deterministic.

Two algorithms compute that unique forest. `dense_msf` runs Prim on a dense
weight matrix (+inf marks an absent edge); it is what the builders use for
metrics and disk graphs (`metric_mst`, `disk.sdg_msf`), since it needs no edge
list. `kruskal_msf` runs Kruskal on an edge-list `WeightedGraph`; it serves
edge-list spaces, the brute-force oracle, and `verify_certificate`, which thus
re-derives every forest with an algorithm independent of the builder's.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .metric import Metric

Edge = tuple[int, int, float]  # (u, v, weight) with u < v

OBJECTIVES = (
    "degree",
    "radius",
    "depth",
    "diameter",
    "hop_diameter",
    "sum_pairwise",
    "sum_single",
)


def edge_key(e: Edge) -> tuple[float, int, int]:
    """Total order on edges: weight first, then endpoints."""
    return (e[2], e[0], e[1])


def canonical_edge(u: int, v: int, w: float) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v, float(w)) if u < v else (v, u, float(w))


def _normalize_edges(n: int, edges: Iterable) -> tuple[Edge, ...]:
    out = []
    seen = set()
    for u, v, w in edges:
        e = canonical_edge(int(u), int(v), w)
        if not (0 <= e[0] and e[1] < n):
            raise ValueError(f"edge {e} out of range for n={n}")
        if (e[0], e[1]) in seen:
            raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add((e[0], e[1]))
        out.append(e)
    return tuple(sorted(out, key=edge_key))


@dataclass(frozen=True)
class WeightedGraph:
    """Edge-list graph with real weights, stored in canonical sorted order."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))

    @property
    def weight(self) -> float:
        return math.fsum(w for _, _, w in self.edges)

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)

    def weight_map(self) -> dict[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}

    def adjacency_matrix(self, absent: float = np.inf) -> np.ndarray:
        """Dense symmetric weight matrix with `absent` in non-edge entries."""
        d = np.full((self.n, self.n), absent, dtype=float)
        np.fill_diagonal(d, 0.0)
        for u, v, w in self.edges:
            d[u, v] = w
            d[v, u] = w
        return d


def complete_graph(m: Metric) -> WeightedGraph:
    """The complete graph on a metric's points, weighted by its distances."""
    iu, iv = np.triu_indices(m.n, 1)
    w = m.matrix[iu, iv]
    edges = [(int(a), int(b), float(c)) for a, b, c in zip(iu, iv, w)]
    return WeightedGraph(n=m.n, edges=tuple(edges))


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

    @staticmethod
    def from_edges(n: int, edges: Iterable) -> "Forest":
        norm = _normalize_edges(n, edges)
        uf = UnionFind(n)
        for u, v, _ in norm:
            if not uf.union(u, v):
                raise ValueError(f"edges contain a cycle through ({u},{v})")
        comp = _component_ids(n, uf)
        return Forest(n=n, edges=norm, component=comp)

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


def _component_ids(n: int, uf: UnionFind) -> tuple[int, ...]:
    smallest: dict[int, int] = {}
    for v in range(n):
        root = uf.find(v)
        if root not in smallest or v < smallest[root]:
            smallest[root] = v
    return tuple(smallest[uf.find(v)] for v in range(n))


def kruskal_msf(g: WeightedGraph) -> Forest:
    """Minimum spanning forest under the total edge order; deterministic."""
    uf = UnionFind(g.n)
    kept = []
    for e in g.edges:  # already sorted by edge_key
        if uf.union(e[0], e[1]):
            kept.append(e)
    return Forest(n=g.n, edges=tuple(kept), component=_component_ids(g.n, uf))


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


def metric_mst(m: Metric) -> Forest:
    """Minimum spanning tree of a metric, by `dense_msf` on its distance matrix."""
    return dense_msf(m.matrix)


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


def forest_cycle(f: Forest, e) -> list[Edge]:
    """The unique cycle of f plus one chord: the tree path between its endpoints plus the chord."""
    u, v, w = canonical_edge(int(e[0]), int(e[1]), e[2])
    if (u, v) in f.edge_pairs():
        raise ValueError(f"edge ({u},{v}) already belongs to the forest")
    path = tree_path(f.adjacency(), u, v)
    if path is None:
        raise ValueError(f"endpoints {u} and {v} lie in different components; no cycle")
    return path + [(u, v, w)]


@dataclass(frozen=True)
class CyclePropertyViolation:
    edge: Edge
    cycle: tuple[Edge, ...]
    max_edge: Edge
    message: str

    def __str__(self) -> str:
        return self.message


def cycle_property_check(g: WeightedGraph, f: Forest) -> CyclePropertyViolation | None:
    """Verify that every non-forest edge is the order-maximal edge of its fundamental cycle."""
    forest_pairs = f.edge_pairs()
    adj = f.adjacency()
    for e in g.edges:
        if (e[0], e[1]) in forest_pairs:
            continue
        path = tree_path(adj, e[0], e[1])
        if path is None:
            return CyclePropertyViolation(
                e, (), e, f"non-forest edge ({e[0]},{e[1]}) connects two forest components"
            )
        cycle = path + [e]
        top = max(cycle, key=edge_key)
        if top != e:
            return CyclePropertyViolation(
                e,
                tuple(cycle),
                top,
                f"cycle through ({e[0]},{e[1]}) has maximal edge ({top[0]},{top[1]})"
                " inside the forest",
            )
    return None


@dataclass(frozen=True)
class RootedTree:
    tree: Forest
    root: int

    def __post_init__(self):
        if not self.tree.connected:
            raise ValueError("a rooted tree must have exactly one component")
        if not (0 <= self.root < self.tree.n):
            raise ValueError(f"root {self.root} out of range")


@dataclass(frozen=True)
class TreeParameters:
    """Weighted and unweighted (hop) parameters of a rooted tree.

    radius/depth are the maximum weighted/hop distance from the root;
    diameter/hop_diameter the maximum over all pairs; sum_single the total
    weighted root distance and sum_pairwise the total over all pairs
    (hop variants count every edge as 1).
    """

    degree: int
    radius: float
    depth: int
    diameter: float
    hop_diameter: int
    sum_pairwise: float
    sum_single: float
    sum_pairwise_hops: int
    sum_single_hops: int


def _distances_from(adj: Sequence[dict[int, float]], src: int) -> tuple[dict[int, float], dict[int, int]]:
    dist = {src: 0.0}
    hops = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y, w in adj[x].items():
            if y not in dist:
                dist[y] = dist[x] + w
                hops[y] = hops[x] + 1
                queue.append(y)
    return dist, hops


def tree_parameters(t: RootedTree) -> TreeParameters:
    n = t.tree.n
    adj = t.tree.adjacency()
    degree = max((len(a) for a in adj), default=0)
    dist_root, hops_root = _distances_from(adj, t.root)
    radius = max(dist_root.values())
    depth = max(hops_root.values())
    diameter, hop_diameter = 0.0, 0
    for v in range(n):
        dist, hops = _distances_from(adj, v)
        diameter = max(diameter, max(dist.values()))
        hop_diameter = max(hop_diameter, max(hops.values()))
    return TreeParameters(
        degree=degree,
        radius=radius,
        depth=depth,
        diameter=diameter,
        hop_diameter=hop_diameter,
        sum_pairwise=sum_pairwise(t.tree),
        sum_single=math.fsum(dist_root.values()),
        sum_pairwise_hops=round(sum_pairwise(t.tree, unit=True)),
        sum_single_hops=sum(hops_root.values()),
    )


def sum_pairwise(tree: Forest, unit: bool = False) -> float:
    """Sum of tree distances over all vertex pairs, in O(n) per tree.

    Each edge contributes weight * size_below * (n - size_below), where
    size_below is the number of vertices on its far side.
    """
    n = tree.n
    if n <= 1:
        return 0.0
    adj = tree.adjacency()
    order = []
    parent = {0: 0}
    queue = deque([0])
    while queue:
        x = queue.popleft()
        order.append(x)
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    size = [1] * n
    for x in reversed(order):
        if parent[x] != x:
            size[parent[x]] += size[x]
    terms = []
    for x in order:
        if parent[x] == x:
            continue
        w = 1.0 if unit else adj[x][parent[x]]
        terms.append(w * size[x] * (n - size[x]))
    return math.fsum(terms)


def spanning_trees(g: WeightedGraph):
    """Yield every spanning tree of a connected graph as an edge tuple (exhaustive)."""
    n = g.n
    if n == 1:
        yield ()
        return
    for combo in combinations(g.edges, n - 1):
        uf = UnionFind(n)
        ok = True
        for u, v, _ in combo:
            if not uf.union(u, v):
                ok = False
                break
        if ok:
            yield combo


def _tree_objective(n: int, combo, objective: str) -> tuple[float, int]:
    """Objective value of one spanning tree, minimized over roots where the
    objective depends on one; returns (value, best root)."""
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for u, v, w in combo:
        adj[u][v] = w
        adj[v][u] = w
    if objective == "degree":
        return max(len(a) for a in adj), 0
    per_root = []
    for v in range(n):
        dist, hops = _distances_from(adj, v)
        per_root.append((max(dist.values()), max(hops.values()), math.fsum(dist.values())))
    if objective == "diameter":
        return max(r[0] for r in per_root), 0
    if objective == "hop_diameter":
        return max(r[1] for r in per_root), 0
    if objective == "sum_pairwise":
        return math.fsum(r[2] for r in per_root) / 2.0, 0
    col = {"radius": 0, "depth": 1, "sum_single": 2}[objective]
    value, root = min((r[col], v) for v, r in enumerate(per_root))
    return value, root


def brute_force_optimal_tree(g: WeightedGraph, objective: str) -> RootedTree:
    """Exhaustively minimize a tree parameter over all spanning trees (n <= 8).

    Root-dependent objectives (radius, depth, sum_single) are minimized over
    every root. Ties break by (value, edge list, root) so the result is
    deterministic.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if g.n > 8:
        raise ValueError(f"brute force supports n <= 8, got n={g.n}")
    if kruskal_msf(g).num_components != 1:
        raise ValueError("graph must be connected")
    best = None
    for combo in spanning_trees(g):
        value, root = _tree_objective(g.n, combo, objective)
        cand = (value, combo, root)
        if best is None or cand < best:
            best = cand
    _, combo, root = best
    return RootedTree(Forest.from_edges(g.n, combo), root)
