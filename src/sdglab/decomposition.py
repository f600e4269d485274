"""Lightness certificates and the peeling bound for symmetric disk graphs.

Given a metric (or any traceable weighted graph) with a range assignment, the
MSF F of its symmetric disk graph, and a Hamiltonian path H, `decompose`
constructs an edge set inside F of weight at most w(H) whose removal isolates
at least a fifth of the vertices. The construction is an exchange argument:

  * path edges present in the disk graph but outside F are swapped, in
    ascending order, against the heaviest non-path edge of the unique cycle
    each one closes (per swap the removed edge is no heavier than the added
    one, by the max-cycle-edge property of the MSF);
  * path edges missing from the disk graph are too long for their smaller
    endpoint's radius, so every surviving forest edge at that endpoint is
    strictly lighter; one such forest edge is retired per missing path edge.

`verify_certificate` re-derives every claimed property from scratch, and
`lightness_trace` applies the certificate repeatedly, shrinking the point set
by a factor >= 1/5 per round, which telescopes to
w(F) <= log_{5/4} n * w(H) and hence a weight coefficient of at most
2 * log_{5/4} n for any metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

from .disk import RangeAssignment, build_sdg, build_sdg_graph, sdg_matrix, sdg_msf
from .graph import (
    Edge,
    Forest,
    WeightedGraph,
    canonical_edge,
    dense_msf,
    edge_key,
    kruskal_msf,
    metric_mst,
    tree_path,
)
from .hamiltonian import HamPath, distance_matrix, ham_path, shortcut_path
from .metric import Metric

Space = Union[Metric, WeightedGraph]

LOG_BASE = 5.0 / 4.0


class BoundViolationError(RuntimeError):
    """A proven inequality failed at run time; indicates a bug or bad input."""


def log_rounds_bound(n: int) -> int:
    """ceil(log_{5/4} n): cap on the number of peeling rounds."""
    if n <= 1:
        return 0
    return math.ceil(math.log(n) / math.log(LOG_BASE))


def lightness_bound(n: int) -> float:
    """2 * log_{5/4} n: cap on the weight coefficient of any metric's disk graph."""
    return 2.0 * math.log(n) / math.log(LOG_BASE)


def _fsum_edges(edges: Sequence[Edge]) -> float:
    return math.fsum(w for _, _, w in edges)


def _pairs(edges: Sequence[Edge]) -> set[tuple[int, int]]:
    return {(u, v) for u, v, _ in edges}


def _sdg_of(space: Space, r: RangeAssignment) -> WeightedGraph:
    if isinstance(space, Metric):
        return build_sdg(space, r)
    return build_sdg_graph(space, r)


def _ham_edges(space: Space, h: HamPath) -> list[Edge]:
    """Canonical weighted edges of a path, validated against the space."""
    n = space.n
    if sorted(h.order) != list(range(n)):
        raise ValueError("hamiltonian path order is not a permutation of the vertices")
    if isinstance(space, Metric):
        return [canonical_edge(a, b, space.matrix[a, b]) for a, b in zip(h.order, h.order[1:])]
    weights = space.weight_map()
    edges = []
    for a, b in zip(h.order, h.order[1:]):
        key = (min(a, b), max(a, b))
        if key not in weights:
            raise ValueError(f"path step ({a},{b}) is not an edge of the graph")
        edges.append((key[0], key[1], weights[key]))
    return edges


def _min_endpoint(e: Edge, r: RangeAssignment) -> int:
    u, v, _ = e
    return u if r[u] < r[v] else v


@dataclass(frozen=True)
class DecompositionCertificate:
    """Edge sets witnessing that removing weight <= w(H) from the forest
    isolates at least ceil(n/5) vertices.

    e_prime / e_dprime split the path edges by disk-graph membership;
    e1 / e2 split e_prime by forest membership. tilde_e2 aligns index-by-index
    with e2 (cycle exchanges), star_f with star_h (radius retirements), and
    tilde_e = e1 + tilde_e2 + star_f is the removed set.
    """

    n: int
    e_prime: tuple[Edge, ...]
    e_dprime: tuple[Edge, ...]
    e1: tuple[Edge, ...]
    e2: tuple[Edge, ...]
    tilde_e2: tuple[Edge, ...]
    star_h: tuple[Edge, ...]
    star_f: tuple[Edge, ...]
    tilde_e: tuple[Edge, ...]
    isolated: tuple[int, ...]

    @property
    def weights(self) -> dict[str, float]:
        return {
            name: _fsum_edges(getattr(self, name))
            for name in ("e_prime", "e_dprime", "e1", "e2", "tilde_e2", "star_h", "star_f", "tilde_e")
        }

    def to_dict(self) -> dict:
        def enc(edges):
            return [[u, v] for u, v, _ in edges]

        return {
            "n": self.n,
            "e_prime": enc(self.e_prime),
            "e_dprime": enc(self.e_dprime),
            "e1": enc(self.e1),
            "e2": enc(self.e2),
            "tilde_e2": enc(self.tilde_e2),
            "star_h": enc(self.star_h),
            "star_f": enc(self.star_f),
            "tilde_e": enc(self.tilde_e),
            "isolated": list(self.isolated),
            "weights": self.weights,
        }

    @staticmethod
    def from_dict(data: dict, space: Space) -> "DecompositionCertificate":
        d = (
            space.matrix
            if isinstance(space, Metric)
            else space.adjacency_matrix()
        )

        def dec(pairs):
            return tuple(canonical_edge(int(u), int(v), float(d[int(u), int(v)])) for u, v in pairs)

        return DecompositionCertificate(
            n=int(data["n"]),
            e_prime=dec(data["e_prime"]),
            e_dprime=dec(data["e_dprime"]),
            e1=dec(data["e1"]),
            e2=dec(data["e2"]),
            tilde_e2=dec(data["tilde_e2"]),
            star_h=dec(data["star_h"]),
            star_f=dec(data["star_f"]),
            tilde_e=dec(data["tilde_e"]),
            isolated=tuple(int(v) for v in data["isolated"]),
        )


def decompose(space: Space, r: RangeAssignment, f: Forest, h: HamPath) -> DecompositionCertificate:
    """Build a lightness certificate for (space, r, f, h).

    Requires f to be the MSF of the symmetric disk graph (recomputed and
    checked) and h to be a Hamiltonian path of the space. The certificate is
    deterministic: ties resolve through the total edge order.
    """
    n = space.n
    ham_edges = _ham_edges(space, h)
    sdg = sdg_matrix(distance_matrix(space), r)
    if dense_msf(sdg) != f:
        raise ValueError("forest is not the MSF of the symmetric disk graph")

    forest_pairs = f.edge_pairs()
    ham_pairs = _pairs(ham_edges)

    e_prime = sorted((e for e in ham_edges if sdg[e[0], e[1]] != math.inf), key=edge_key)
    e_dprime = sorted((e for e in ham_edges if sdg[e[0], e[1]] == math.inf), key=edge_key)
    e1 = sorted((e for e in e_prime if (e[0], e[1]) in forest_pairs), key=edge_key)
    e2 = sorted((e for e in e_prime if (e[0], e[1]) not in forest_pairs), key=edge_key)

    # Cycle exchanges: walk e2 in ascending order, swap each edge into the
    # running forest against the heaviest cycle edge outside the path.
    adj = f.adjacency()
    tilde_e2: list[Edge] = []
    for e in e2:
        path = tree_path(adj, e[0], e[1])
        if path is None:
            raise BoundViolationError("disk-graph edge spans two forest components")
        candidates = [c for c in path if (c[0], c[1]) not in ham_pairs]
        if not candidates:
            raise BoundViolationError("cycle fully contained in the path")
        out = max(candidates, key=edge_key)
        tilde_e2.append(out)
        del adj[out[0]][out[1]], adj[out[1]][out[0]]
        adj[e[0]][e[1]] = e[2]
        adj[e[1]][e[0]] = e[2]

    # Radius retirements: on the forest minus (e1 + tilde_e2), scan the path
    # edges missing from the disk graph; whenever the smaller-radius endpoint
    # still has forest edges, retire its heaviest one.
    resid = f.adjacency()
    for u, v, _ in list(e1) + tilde_e2:
        del resid[u][v], resid[v][u]
    star_h: list[Edge] = []
    star_f: list[Edge] = []
    for e in e_dprime:
        me = _min_endpoint(e, r)
        if resid[me]:
            incident = [canonical_edge(me, x, w) for x, w in resid[me].items()]
            out = max(incident, key=edge_key)
            star_h.append(e)
            star_f.append(out)
            del resid[out[0]][out[1]], resid[out[1]][out[0]]

    tilde_e = sorted(list(e1) + tilde_e2 + star_f, key=edge_key)
    isolated = tuple(v for v in range(n) if not resid[v])
    return DecompositionCertificate(
        n=n,
        e_prime=tuple(e_prime),
        e_dprime=tuple(e_dprime),
        e1=tuple(e1),
        e2=tuple(e2),
        tilde_e2=tuple(tilde_e2),
        star_h=tuple(star_h),
        star_f=tuple(star_f),
        tilde_e=tuple(tilde_e),
        isolated=isolated,
    )


def verify_certificate(
    space: Space,
    r: RangeAssignment,
    f: Forest,
    h: HamPath,
    cert: DecompositionCertificate,
) -> list[str]:
    """Recompute every certificate invariant from scratch.

    Returns the list of violated invariants (empty means the certificate is
    valid). The checks are independent of how the certificate was built; any
    exchange satisfying the per-index inequalities is accepted.
    """
    problems: list[str] = []
    n = space.n
    if cert.n != n:
        return [f"certificate is for n={cert.n}, space has n={n}"]
    try:
        ham_edges = _ham_edges(space, h)
    except ValueError as exc:
        return [str(exc)]
    sdg = _sdg_of(space, r)
    if kruskal_msf(sdg) != f:
        problems.append("forest is not the MSF of the symmetric disk graph")
    ham_weight = _fsum_edges(ham_edges)
    if ham_weight != h.weight:
        problems.append("stored path weight does not match its edge weights")

    sdg_pairs = sdg.edge_pairs()
    forest_pairs = f.edge_pairs()
    ham_pairs = _pairs(ham_edges)

    e_prime_ref = {(u, v) for u, v, _ in ham_edges if (u, v) in sdg_pairs}
    if _pairs(cert.e_prime) != e_prime_ref:
        problems.append("e_prime is not (path edges of the disk graph)")
    if _pairs(cert.e_dprime) != ham_pairs - e_prime_ref:
        problems.append("e_dprime is not (path edges outside the disk graph)")
    if _pairs(cert.e1) != e_prime_ref & forest_pairs:
        problems.append("e1 is not (e_prime edges inside the forest)")
    if _pairs(cert.e2) != e_prime_ref - forest_pairs:
        problems.append("e2 is not (e_prime edges outside the forest)")
    if list(cert.e2) != sorted(cert.e2, key=edge_key):
        problems.append("e2 is not in ascending edge order")

    # Cycle-exchange block.
    if len(cert.tilde_e2) != len(cert.e2):
        problems.append("tilde_e2 and e2 differ in length")
    if len(_pairs(cert.tilde_e2)) != len(cert.tilde_e2):
        problems.append("tilde_e2 contains duplicate edges")
    for i, e in enumerate(cert.tilde_e2):
        if (e[0], e[1]) not in forest_pairs:
            problems.append(f"tilde_e2[{i}] is not a forest edge")
        if (e[0], e[1]) in ham_pairs:
            problems.append(f"tilde_e2[{i}] belongs to the path")
    for i, (kept, out) in enumerate(zip(cert.e2, cert.tilde_e2)):
        if out[2] > kept[2]:
            problems.append(f"exchange {i} removed a heavier edge: w={out[2]} > w={kept[2]}")

    # Radius-retirement block.
    if len(cert.star_f) != len(cert.star_h):
        problems.append("star_f and star_h differ in length")
    if len(_pairs(cert.star_h)) != len(cert.star_h):
        problems.append("star_h contains duplicate edges")
    if len(_pairs(cert.star_f)) != len(cert.star_f):
        problems.append("star_f contains duplicate edges")
    dprime_pairs = ham_pairs - e_prime_ref
    for i, e in enumerate(cert.star_h):
        if (e[0], e[1]) not in dprime_pairs:
            problems.append(f"star_h[{i}] is not a path edge missing from the disk graph")
    for i, e in enumerate(cert.star_f):
        if (e[0], e[1]) not in forest_pairs:
            problems.append(f"star_f[{i}] is not a forest edge")
        if (e[0], e[1]) in ham_pairs:
            problems.append(f"star_f[{i}] belongs to the path")
    for i, (he, fe) in enumerate(zip(cert.star_h, cert.star_f)):
        me = _min_endpoint(he, r)
        if me not in (fe[0], fe[1]):
            problems.append(f"star_f[{i}] is not incident to the smaller-radius endpoint of star_h[{i}]")
        if fe[2] > r[me]:
            problems.append(f"retired edge {i} exceeds the endpoint radius: w={fe[2]} > r={r[me]}")
    for u, v, w in e_dprime_edges(ham_edges, sdg_pairs):
        me = _min_endpoint((u, v, w), r)
        if not r[me] < w:
            problems.append(f"path edge ({u},{v}) outside the disk graph has radius >= weight")
    if _fsum_edges(cert.star_f) > _fsum_edges(cert.star_h):
        problems.append("retired forest edges outweigh their path edges")

    # Set algebra of the removed set.
    union = _pairs(cert.e1) | _pairs(cert.tilde_e2) | _pairs(cert.star_f)
    if _pairs(cert.tilde_e) != union or len(cert.tilde_e) != len(cert.e1) + len(
        cert.tilde_e2
    ) + len(cert.star_f):
        problems.append("tilde_e is not the disjoint union of e1, tilde_e2 and star_f")
    if _pairs(cert.e1) & _pairs(cert.e2) or _pairs(cert.e1) & _pairs(cert.star_h) or _pairs(
        cert.e2
    ) & _pairs(cert.star_h):
        problems.append("e1, e2 and star_h are not pairwise disjoint")
    if _pairs(cert.e1) & _pairs(cert.tilde_e2) or _pairs(cert.e1) & _pairs(cert.star_f) or _pairs(
        cert.tilde_e2
    ) & _pairs(cert.star_f):
        problems.append("e1, tilde_e2 and star_f are not pairwise disjoint")

    if _fsum_edges(cert.tilde_e) > ham_weight:
        problems.append("removed weight exceeds the path weight")

    # Isolation block, recomputed on the forest minus the removed set.
    removed = _pairs(cert.tilde_e)
    degree = [0] * n
    for u, v, _ in f.edges:
        if (u, v) not in removed:
            degree[u] += 1
            degree[v] += 1
    isolated_ref = tuple(v for v in range(n) if degree[v] == 0)
    if cert.isolated != isolated_ref:
        problems.append("isolated set does not match the forest minus tilde_e")
    if len(isolated_ref) < math.ceil(n / 5):
        problems.append(
            f"isolated count {len(isolated_ref)} is below ceil(n/5) = {math.ceil(n / 5)}"
        )
    retired = _pairs(cert.star_h)
    for u, v, w in e_dprime_edges(ham_edges, sdg_pairs):
        if (u, v) in retired:
            continue
        me = _min_endpoint((u, v, w), r)
        if degree[me] != 0:
            problems.append(
                f"residual path edge ({u},{v}) has a non-isolated smaller-radius endpoint"
            )
    return problems


def e_dprime_edges(ham_edges: Sequence[Edge], sdg_pairs: frozenset) -> list[Edge]:
    return [e for e in ham_edges if (e[0], e[1]) not in sdg_pairs]


@dataclass(frozen=True)
class TraceRound:
    """One peeling round: the live vertex set (original labels), its
    certificate (local labels), and the weights entering the telescoped bound."""

    labels: tuple[int, ...]
    certificate: DecompositionCertificate
    w_ham: float
    w_removed: float
    w_kept: float
    w_next_forest: float


@dataclass(frozen=True)
class LightnessTrace:
    """Full peeling run with the numeric sides of w(F) <= log_{5/4} n * w(H)."""

    n: int
    ham_mode: str
    rounds: tuple[TraceRound, ...]
    basis_labels: tuple[int, ...]
    basis_edges: tuple[Edge, ...]
    basis_weight: float
    w_msf: float
    w_ham_first: float
    w_ham_last: float
    telescoped: float

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def max_round_bound(self) -> int:
        return log_rounds_bound(self.n)

    @property
    def coarse_bound(self) -> float:
        """rounds * w(H) + 3 * w(H_last), the middle term of the accounting."""
        return self.round_count * self.w_ham_first + 3.0 * self.w_ham_last

    @property
    def log_bound(self) -> float:
        if self.n <= 1:
            return 0.0
        return math.log(self.n) / math.log(LOG_BASE) * self.w_ham_first

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "ham_mode": self.ham_mode,
            "rounds": [
                {
                    "labels": list(rd.labels),
                    "w_ham": rd.w_ham,
                    "w_removed": rd.w_removed,
                    "w_kept": rd.w_kept,
                    "w_next_forest": rd.w_next_forest,
                    "certificate": rd.certificate.to_dict(),
                }
                for rd in self.rounds
            ],
            "basis": {
                "labels": list(self.basis_labels),
                "edges": [[u, v, w] for u, v, w in self.basis_edges],
                "weight": self.basis_weight,
            },
            "checks": {
                "w_msf": self.w_msf,
                "telescoped": self.telescoped,
                "round_count": self.round_count,
                "max_round_bound": self.max_round_bound,
                "w_ham_first": self.w_ham_first,
                "w_ham_last": self.w_ham_last,
                "coarse_bound": self.coarse_bound,
                "log_bound": self.log_bound,
            },
        }


def lightness_trace(m: Metric, r: RangeAssignment, ham_mode: str = "auto") -> LightnessTrace:
    """Peel the disk-graph forest until at most 4 vertices survive.

    Each round removes a certificate's edge set and recomputes the MSF of the
    disk graph induced on the survivors; the path is shortcut (or re-solved
    exactly, depending on ham_mode) for the next round. Raises
    BoundViolationError if any step of the telescoped accounting fails.
    """
    if ham_mode not in ("exact", "approx", "auto"):
        raise ValueError(f"unknown ham_mode {ham_mode!r}")
    if len(r) != m.n:
        raise ValueError(f"range assignment has {len(r)} radii for {m.n} points")

    forest = sdg_msf(m, r)
    w_msf = forest.weight
    labels = tuple(range(m.n))
    cur_m, cur_r = m, r
    cur_h: HamPath | None = None
    rounds: list[TraceRound] = []
    removed_weights: list[float] = []

    while cur_m.n > 4:
        if cur_h is None or ham_mode == "exact" or (ham_mode == "auto" and cur_m.n <= 16):
            new_h = ham_path(cur_m, mode=ham_mode)
        else:
            new_h = cur_h  # already shortcut onto the current point set
        if cur_h is not None and new_h.weight > cur_h.weight:
            raise BoundViolationError("path weight increased between rounds")
        cur_h = new_h
        cert = decompose(cur_m, cur_r, forest, cur_h)
        survivors = tuple(v for v in range(cur_m.n) if v not in set(cert.isolated))
        if len(survivors) > (4 * cur_m.n) // 5:
            raise BoundViolationError("round isolated fewer than a fifth of the vertices")

        removed_pairs = _pairs(cert.tilde_e)
        kept_edges = [e for e in forest.edges if (e[0], e[1]) not in removed_pairs]
        w_kept = _fsum_edges(kept_edges)
        removed_weights.extend(w for _, _, w in cert.tilde_e)

        if survivors:
            next_m, relabel = cur_m.induce(survivors)
            next_r = cur_r.restrict(survivors)
            next_forest = sdg_msf(next_m, next_r)
            if w_kept > next_forest.weight:
                raise BoundViolationError("kept forest weight exceeds the induced MSF weight")
            position = {old: new for new, old in enumerate(survivors)}
            sub = shortcut_path(cur_m, cur_h, survivors)
            next_h = HamPath(
                order=tuple(position[v] for v in sub.order),
                weight=sub.weight,
                exact=False,
            )
            w_next = next_forest.weight
        else:
            next_m, next_r, next_h, next_forest, w_next = None, None, None, None, 0.0

        rounds.append(
            TraceRound(
                labels=labels,
                certificate=cert,
                w_ham=cur_h.weight,
                w_removed=_fsum_edges(cert.tilde_e),
                w_kept=w_kept,
                w_next_forest=w_next,
            )
        )
        if cur_h.weight > rounds[0].w_ham:
            raise BoundViolationError("path weight exceeded the first round's weight")
        if next_m is None:
            labels, cur_m, cur_r, cur_h = (), None, None, None
            break
        labels = tuple(labels[v] for v in survivors)
        cur_m, cur_r, cur_h, forest = next_m, next_r, next_h, next_forest

    # Basis: at most 4 vertices (possibly zero when a round isolated everything).
    if cur_m is not None:
        basis_edges = tuple(canonical_edge(labels[u], labels[v], w) for u, v, w in forest.edges)
        if cur_m.n >= 2:
            if cur_h is None:
                cur_h = ham_path(cur_m, mode=ham_mode)
            w_ham_last = cur_h.weight
        else:
            w_ham_last = 0.0
        basis_labels = labels
    else:
        basis_edges, basis_labels, w_ham_last = (), (), 0.0

    basis_weight = _fsum_edges(basis_edges)
    if basis_weight > 3.0 * w_ham_last:
        raise BoundViolationError("basis forest outweighs three times its path")
    telescoped = math.fsum(removed_weights + [w for _, _, w in basis_edges])
    w_ham_first = rounds[0].w_ham if rounds else w_ham_last

    trace = LightnessTrace(
        n=m.n,
        ham_mode=ham_mode,
        rounds=tuple(rounds),
        basis_labels=basis_labels,
        basis_edges=basis_edges,
        basis_weight=basis_weight,
        w_msf=w_msf,
        w_ham_first=w_ham_first,
        w_ham_last=w_ham_last,
        telescoped=telescoped,
    )
    if trace.round_count > trace.max_round_bound:
        raise BoundViolationError("round count exceeds ceil(log_{5/4} n)")
    if w_msf > telescoped:
        raise BoundViolationError("telescoped removal weights fall short of the forest weight")
    if telescoped > trace.coarse_bound:
        raise BoundViolationError("telescoped weights exceed rounds * w(H) + 3 * w(H_last)")
    if m.n >= 2 and trace.coarse_bound > trace.log_bound:
        raise BoundViolationError("coarse bound exceeds log_{5/4} n * w(H)")
    return trace


@dataclass(frozen=True)
class WeightCoefficientReport:
    w_msf_sdg: float
    w_mst_metric: float
    coefficient: float
    bound: float
    connected: bool


def weight_coefficient(m: Metric, r: RangeAssignment) -> WeightCoefficientReport:
    """w(MSF(SDG(M,r))) / w(MST(M)), asserted against 2 * log_{5/4} n."""
    if m.n < 2:
        raise ValueError("weight coefficient needs at least two points")
    msf = sdg_msf(m, r)
    mst = metric_mst(m)
    coefficient = msf.weight / mst.weight
    bound = lightness_bound(m.n)
    if coefficient > bound:
        raise BoundViolationError(
            f"weight coefficient {coefficient} exceeds 2*log_(5/4) n = {bound}"
        )
    return WeightCoefficientReport(
        w_msf_sdg=msf.weight,
        w_mst_metric=mst.weight,
        coefficient=coefficient,
        bound=bound,
        connected=msf.connected,
    )


def graph_weight_coefficient(g: WeightedGraph, r: RangeAssignment) -> WeightCoefficientReport:
    """w(MSF(SDG(G,r))) / w(MSF(G)) for a general weighted graph.

    No bound applies here: without the triangle inequality the ratio can be
    arbitrarily large, so `bound` is reported as +inf.
    """
    msf_sdg = kruskal_msf(build_sdg_graph(g, r))
    msf_g = kruskal_msf(g)
    if msf_g.weight <= 0:
        raise ValueError("graph MSF weight must be positive")
    return WeightCoefficientReport(
        w_msf_sdg=msf_sdg.weight,
        w_mst_metric=msf_g.weight,
        coefficient=msf_sdg.weight / msf_g.weight,
        bound=math.inf,
        connected=msf_sdg.connected,
    )
