"""Lightness certificates and the peeling bound for symmetric disk graphs.

Given a prepared instance (a space: a metric, or a weighted graph for the
non-metric counterexamples; a range assignment; and the MSF F of its symmetric
disk graph) and a Hamiltonian path H, `decompose` constructs an edge set inside
F of weight at most w(H) whose removal isolates at least a fifth of the
vertices. The construction is an exchange argument:

  * path edges present in the disk graph but outside F are swapped, in
    ascending order, against the heaviest non-path edge of the unique cycle
    each one closes (per swap the removed edge is no heavier than the added
    one, by the max-cycle-edge property of the MSF);
  * path edges missing from the disk graph are too long for their smaller
    endpoint's radius, so every surviving forest edge at that endpoint is
    strictly lighter; one such forest edge is retired per missing path edge.

`decompose` trusts F, which `Prepared` built; `verify_certificate` checks F by
the cycle property on its own radii test, with no masked copy of the matrix,
and re-derives every claimed property from scratch: it reads only vertex pairs
from the certificate, and every weight from the space.
`lightness_trace` prepares the survivors of each round as a new instance and
decomposes it with H shortcut onto them, so every round's path weighs at most
w(H). The point set shrinks by a factor >= 1/5 per round, which telescopes to
w(F) <= log_{5/4} n * w(H) and hence a weight coefficient of at most
2 * log_{5/4} n for any metric.

`Prepared` holds one instance (space, r, path mode) and computes its disk-graph
MSF, first path and first certificate once, on first use; the trace, the
coefficient and the assignment read them from it, so all belong to one (space, r).
The MST depends on the space alone, so it is the space's own `mst`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .disk import RangeAssignment, sdg_msf
from .graph import Edge, Forest, Space, canonical_edge, edge_key, is_msf, tree_path
from .hamiltonian import HAM_MODES, HamPath, approx_ham_path, exact_min_ham_path, shortcut_path, solves_exactly

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


def _ham_edges(d: np.ndarray, h: HamPath) -> list[Edge]:
    """Canonical weighted edges of a path, validated against a space's matrix."""
    if sorted(h.order) != list(range(d.shape[0])):
        raise ValueError("hamiltonian path order is not a permutation of the vertices")
    edges = []
    for a, b in zip(h.order, h.order[1:]):
        if d[a, b] == math.inf:
            raise ValueError(f"path step ({a},{b}) is not an edge of the graph")
        edges.append(canonical_edge(a, b, d[a, b]))
    return edges


def parse_vertices(values, n: int, what: str) -> tuple[int, ...]:
    """Vertex ids read from a file: a JSON list of integers in [0, n)."""
    if not (isinstance(values, list) and all(type(v) is int and 0 <= v < n for v in values)):
        raise ValueError(f"{what} must be a list of vertices in [0, {n}), got {values!r}")
    return tuple(values)


def _min_endpoint(pair: tuple[int, int], r: RangeAssignment) -> int:
    u, v = pair
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

    EDGE_FIELDS = ("e_prime", "e_dprime", "e1", "e2", "tilde_e2", "star_h", "star_f", "tilde_e")

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
        return {name: _fsum_edges(getattr(self, name)) for name in self.EDGE_FIELDS}

    def to_dict(self) -> dict:
        data = {name: [[u, v] for u, v, _ in getattr(self, name)] for name in self.EDGE_FIELDS}
        data.update(n=self.n, isolated=list(self.isolated), weights=self.weights)
        return data

    @staticmethod
    def from_dict(data: dict, space: Space) -> "DecompositionCertificate":
        """Read `to_dict` output; a missing field, or a vertex outside
        [0, space.n), raises ValueError."""
        fields = ("n", "isolated", *DecompositionCertificate.EDGE_FIELDS)
        if not (isinstance(data, dict) and set(fields) <= set(data) and type(data["n"]) is int):
            raise ValueError(f"certificate must be a JSON object with fields {', '.join(fields)}")
        d = space.matrix

        def dec(name):
            pairs = data[name]
            if not (isinstance(pairs, list) and all(isinstance(e, list) and len(e) == 2 for e in pairs)):
                raise ValueError(f"certificate field {name} must be a list of [u, v] pairs")
            parse_vertices([v for e in pairs for v in e], space.n, name)
            return tuple(canonical_edge(u, v, float(d[u, v])) for u, v in pairs)

        return DecompositionCertificate(
            n=data["n"],
            isolated=parse_vertices(data["isolated"], space.n, "isolated"),
            **{name: dec(name) for name in DecompositionCertificate.EDGE_FIELDS},
        )


def decompose(p: Prepared, h: HamPath) -> DecompositionCertificate:
    """Build a lightness certificate for p's instance and a Hamiltonian path h
    of its space.

    The forest is p.msf, taken as given; `verify_certificate` checks it
    independently. The certificate is deterministic: ties resolve through the
    total edge order.
    """
    ham_edges = sorted(_ham_edges(p.space.matrix, h), key=edge_key)
    n, r, f = p.space.n, p.r, p.msf
    forest_pairs = f.edge_pairs()
    ham_pairs = _pairs(ham_edges)

    # Splits keep ascending order; a path edge is in the disk graph iff both radii reach across it.
    e_prime = [e for e in ham_edges if min(r[e[0]], r[e[1]]) >= e[2]]
    e_dprime = [e for e in ham_edges if min(r[e[0]], r[e[1]]) < e[2]]
    e1 = [e for e in e_prime if (e[0], e[1]) in forest_pairs]
    e2 = [e for e in e_prime if (e[0], e[1]) not in forest_pairs]

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
    for u, v, _ in e1 + tilde_e2:
        del resid[u][v], resid[v][u]
    star_h: list[Edge] = []
    star_f: list[Edge] = []
    for e in e_dprime:
        me = _min_endpoint(e[:2], r)
        if resid[me]:
            incident = [canonical_edge(me, x, w) for x, w in resid[me].items()]
            out = max(incident, key=edge_key)
            star_h.append(e)
            star_f.append(out)
            del resid[out[0]][out[1]], resid[out[1]][out[0]]

    tilde_e = sorted(e1 + tilde_e2 + star_f, key=edge_key)
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


@dataclass(frozen=True)
class Prepared:
    """One instance (space, r) and path mode; each derived object is computed once."""

    space: Space
    r: RangeAssignment
    ham_mode: str = "auto"

    def __post_init__(self):
        if self.ham_mode not in HAM_MODES:
            raise ValueError(f"unknown ham_mode {self.ham_mode!r}")
        if len(self.r) != self.space.n:
            raise ValueError(f"range assignment has {len(self.r)} radii for {self.space.n} points")

    @cached_property
    def msf(self) -> Forest:
        return sdg_msf(self.space, self.r)

    @cached_property
    def path(self) -> HamPath:
        """Hamiltonian path, exact or MST-doubling as `solves_exactly` decides."""
        if solves_exactly(self.ham_mode, self.space.n):
            return exact_min_ham_path(self.space)
        if not self.space.is_metric:
            raise ValueError("approximate paths need a metric; use mode='exact' on graphs")
        return approx_ham_path(self.space)

    @cached_property
    def certificate(self) -> DecompositionCertificate:
        return decompose(self, self.path)


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
    exchange satisfying the per-index inequalities is accepted. Only vertex
    pairs are read from the certificate; every weight compared is d(u, v) from
    the space. An edge is in the disk graph iff min(r_u, r_v) >= its weight,
    tested here for the path edges and by `graph.is_msf` for the rest: f must
    be the disk graph's MSF by that cycle-property check, O(n^2) array work
    over row blocks that builds no forest and no n x n float array of its own.
    """
    n, d = space.n, space.matrix
    if cert.n != n:
        return [f"certificate is for n={cert.n}, space has n={n}"]
    try:
        ham_edges = _ham_edges(d, h)
    except ValueError as exc:
        return [str(exc)]
    problems: list[str] = []
    if not is_msf(d, np.asarray(r.radii, dtype=float), f):
        problems.append("forest is not the MSF of the symmetric disk graph")
    ham_weight = _fsum_edges(ham_edges)
    if ham_weight != h.weight:
        problems.append("stored path weight does not match its edge weights")

    def weight(pair: tuple[int, int]) -> float:
        return float(d[pair])

    pairs = {name: [(u, v) for u, v, _ in getattr(cert, name)] for name in cert.EDGE_FIELDS}
    sets = {name: set(field) for name, field in pairs.items()}
    e2, tilde_e2, star_h, star_f = pairs["e2"], pairs["tilde_e2"], pairs["star_h"], pairs["star_f"]
    forest_pairs = f.edge_pairs()
    ham_pairs = _pairs(ham_edges)
    e_prime_ref = {(u, v) for u, v, w in ham_edges if min(r[u], r[v]) >= w}
    e_dprime_ref = ham_pairs - e_prime_ref

    for name, ref, what in (
        ("e_prime", e_prime_ref, "path edges of the disk graph"),
        ("e_dprime", e_dprime_ref, "path edges outside the disk graph"),
        ("e1", e_prime_ref & forest_pairs, "e_prime edges inside the forest"),
        ("e2", e_prime_ref - forest_pairs, "e_prime edges outside the forest"),
    ):
        if sets[name] != ref:
            problems.append(f"{name} is not ({what})")
    if e2 != sorted(e2, key=lambda e: (weight(e), e)):
        problems.append("e2 is not in ascending edge order")

    # Cycle-exchange block.
    if len(tilde_e2) != len(e2):
        problems.append("tilde_e2 and e2 differ in length")
    if len(sets["tilde_e2"]) != len(tilde_e2):
        problems.append("tilde_e2 contains duplicate edges")
    for i, e in enumerate(tilde_e2):
        if e not in forest_pairs:
            problems.append(f"tilde_e2[{i}] is not a forest edge")
        if e in ham_pairs:
            problems.append(f"tilde_e2[{i}] belongs to the path")
    for i, (kept, out) in enumerate(zip(e2, tilde_e2)):
        if weight(out) > weight(kept):
            problems.append(f"exchange {i} removed a heavier edge: w={weight(out)} > w={weight(kept)}")

    # Radius-retirement block.
    if len(star_f) != len(star_h):
        problems.append("star_f and star_h differ in length")
    if len(sets["star_h"]) != len(star_h):
        problems.append("star_h contains duplicate edges")
    if len(sets["star_f"]) != len(star_f):
        problems.append("star_f contains duplicate edges")
    for i, e in enumerate(star_h):
        if e not in e_dprime_ref:
            problems.append(f"star_h[{i}] is not a path edge missing from the disk graph")
    for i, e in enumerate(star_f):
        if e not in forest_pairs:
            problems.append(f"star_f[{i}] is not a forest edge")
        if e in ham_pairs:
            problems.append(f"star_f[{i}] belongs to the path")
    for i, (he, fe) in enumerate(zip(star_h, star_f)):
        me = _min_endpoint(he, r)
        if me not in fe:
            problems.append(f"star_f[{i}] is not incident to the smaller-radius endpoint of star_h[{i}]")
        if weight(fe) > r[me]:
            problems.append(f"retired edge {i} exceeds the endpoint radius: w={weight(fe)} > r={r[me]}")
    if math.fsum(map(weight, star_f)) > math.fsum(map(weight, star_h)):
        problems.append("retired forest edges outweigh their path edges")

    # Set algebra of the removed set.
    union = sets["e1"] | sets["tilde_e2"] | sets["star_f"]
    if sets["tilde_e"] != union or len(pairs["tilde_e"]) != len(pairs["e1"]) + len(tilde_e2) + len(star_f):
        problems.append("tilde_e is not the disjoint union of e1, tilde_e2 and star_f")
    for a, b, c in (("e1", "e2", "star_h"), ("e1", "tilde_e2", "star_f")):
        if sets[a] & sets[b] or sets[a] & sets[c] or sets[b] & sets[c]:
            problems.append(f"{a}, {b} and {c} are not pairwise disjoint")
    if math.fsum(map(weight, pairs["tilde_e"])) > ham_weight:
        problems.append("removed weight exceeds the path weight")

    # Isolation block, recomputed on the forest minus the removed set.
    degree = [0] * n
    for u, v, _ in f.edges:
        if (u, v) not in sets["tilde_e"]:
            degree[u] += 1
            degree[v] += 1
    isolated_ref = tuple(v for v in range(n) if degree[v] == 0)
    if cert.isolated != isolated_ref:
        problems.append("isolated set does not match the forest minus tilde_e")
    if len(isolated_ref) < math.ceil(n / 5):
        problems.append(
            f"isolated count {len(isolated_ref)} is below ceil(n/5) = {math.ceil(n / 5)}"
        )
    residual = e_dprime_ref - sets["star_h"]
    for u, v, _ in ham_edges:
        if (u, v) in residual and degree[_min_endpoint((u, v), r)]:
            problems.append(
                f"residual path edge ({u},{v}) has a non-isolated smaller-radius endpoint"
            )
    return problems


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


def lightness_trace(p: Prepared) -> LightnessTrace:
    """Peel the disk-graph forest until at most 4 vertices survive.

    There is one path, p.path, and round 1 uses it with p.certificate. Each
    round works on one `Prepared`: it removes a certificate's edge set,
    prepares the survivors (whose MSF is the induced disk graph's) and
    shortcuts the path onto them, and the next round decomposes that
    shortcut path. Raises BoundViolationError if any step of the telescoped
    accounting fails, and ValueError on a space without the triangle
    inequality, which shortcutting needs.
    """
    if not p.space.is_metric:
        raise ValueError("lightness_trace needs the triangle inequality; the space is not a metric")
    w_msf = p.msf.weight
    labels = tuple(range(p.space.n))
    cur: Prepared | None = p
    h = p.path if p.space.n >= 2 else None  # the current round's path, shortcut from p.path
    rounds: list[TraceRound] = []
    removed_weights: list[float] = []

    while cur is not None and cur.space.n > 4:
        n = cur.space.n
        cert = p.certificate if cur is p else decompose(cur, h)
        isolated = set(cert.isolated)
        survivors = tuple(v for v in range(n) if v not in isolated)
        if len(survivors) > (4 * n) // 5:
            raise BoundViolationError("round isolated fewer than a fifth of the vertices")

        removed_pairs = _pairs(cert.tilde_e)
        w_kept = _fsum_edges([e for e in cur.msf.edges if (e[0], e[1]) not in removed_pairs])
        removed_weights.extend(w for _, _, w in cert.tilde_e)

        nxt = next_h = None  # none when the round isolated everything
        if survivors:
            nxt = Prepared(cur.space.induce(survivors)[0], cur.r.restrict(survivors))
            position = {old: new for new, old in enumerate(survivors)}
            sub = shortcut_path(cur.space, h, survivors)
            next_h = HamPath(order=tuple(position[v] for v in sub.order), weight=sub.weight)
        w_next_forest = 0.0 if nxt is None else nxt.msf.weight
        if w_kept > w_next_forest:
            raise BoundViolationError("kept forest weight exceeds the induced MSF weight")

        rounds.append(
            TraceRound(
                labels=labels,
                certificate=cert,
                w_ham=h.weight,
                w_removed=_fsum_edges(cert.tilde_e),
                w_kept=w_kept,
                w_next_forest=w_next_forest,
            )
        )
        if h.weight > rounds[0].w_ham:
            raise BoundViolationError("path weight exceeded the first round's weight")
        cur, labels, h = nxt, tuple(labels[v] for v in survivors), next_h

    # Basis: at most 4 vertices, and none when a round isolated everything.
    local_edges = () if cur is None else cur.msf.edges
    basis_edges = tuple(canonical_edge(labels[u], labels[v], w) for u, v, w in local_edges)
    w_ham_last = 0.0 if h is None else h.weight
    basis_weight = _fsum_edges(basis_edges)
    if basis_weight > 3.0 * w_ham_last:
        raise BoundViolationError("basis forest outweighs three times its path")
    telescoped = math.fsum(removed_weights + [w for _, _, w in basis_edges])
    w_ham_first = rounds[0].w_ham if rounds else w_ham_last

    trace = LightnessTrace(
        n=p.space.n,
        ham_mode=p.ham_mode,
        rounds=tuple(rounds),
        basis_labels=labels,
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
    if p.space.n >= 2 and trace.coarse_bound > trace.log_bound:
        raise BoundViolationError("coarse bound exceeds log_{5/4} n * w(H)")
    return trace


@dataclass(frozen=True)
class WeightCoefficientReport:
    w_msf_sdg: float
    w_mst_metric: float
    coefficient: float
    bound: float
    connected: bool


def weight_coefficient(p: Prepared) -> WeightCoefficientReport:
    """w(MSF(SDG(space,r))) / w(MSF(space)), asserted against 2 * log_{5/4} n.

    The bound needs the triangle inequality. On a non-metric graph the ratio
    can be arbitrarily large, so `bound` is reported as +inf and nothing is
    asserted.
    """
    metric = p.space.is_metric
    msf, mst = p.msf, p.space.mst
    if mst.weight <= 0:
        raise ValueError(
            "weight coefficient needs at least two points" if metric else "graph MSF weight must be positive"
        )
    coefficient = msf.weight / mst.weight
    bound = lightness_bound(p.space.n) if metric else math.inf
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
