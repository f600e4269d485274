"""Lightness certificates and the peeling bound for symmetric disk graphs.

Given a prepared instance (a space: a metric, or a weighted graph for the
non-metric counterexamples; a range assignment; and the MSF F of its symmetric
disk graph) and a Hamiltonian path H, `decompose` constructs an edge set inside
F of weight at most w(H) whose removal isolates at least a fifth of the
vertices. The construction is an exchange argument:

  * path edges present in the disk graph but outside F are swapped, in
    ascending order, against the heaviest non-path edge of the unique cycle
    each one closes (per swap the removed edge is no heavier than the added
    one, by the max-cycle-edge property of the MSF). F is rooted once, and a
    swap reads only its cycle, climbing from the new edge's endpoints to
    their nearest common ancestor, then re-hangs the subtree it cut off;
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
The MST depends on the space alone, so it is the space's own `mst`, and the
disk-graph MSF starts from it once it is built (`disk.sdg_msf`): the MST
edges the radii keep are MSF edges, and when the radii keep them all the two
forests are one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .disk import RangeAssignment, sdg_msf
from .graph import Edge, Forest, Space, canonical_edge, edge_key, is_msf
from .hamiltonian import HAM_MODES, HamPath, approx_ham_path, exact_min_ham_path, shortcut_path, solves_exactly

LOG_BASE = 5.0 / 4.0


class BoundViolationError(RuntimeError):
    """A proven inequality failed at run time; indicates a bug or bad input.

    The message names the inequality, then its numbers: both sides, the
    round (counted from 1) and its n for a check within a round, and the
    edge for `decompose`."""


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
    """Canonical weighted edges of a path, in path order, validated against a
    space's matrix; its weights are read in one gather. The steps are taken
    from `np.asarray(h.order)` with no cast, so a vertex stored as a float
    raises IndexError there, as indexing with the order itself would."""
    if sorted(h.order) != list(range(d.shape[0])):
        raise ValueError("hamiltonian path order is not a permutation of the vertices")
    steps = np.asarray(h.order)
    weights = d[steps[:-1], steps[1:]].tolist()
    a, b = h.order[:-1], h.order[1:]
    if math.inf in weights:
        i = weights.index(math.inf)
        raise ValueError(f"path step ({a[i]},{b[i]}) is not an edge of the graph")
    return [(x, y, w) if x < y else (y, x, w) for x, y, w in zip(a, b, weights)]


def parse_vertices(values, n: int, what: str) -> tuple[int, ...]:
    """Vertex ids read from a file: a JSON list of integers in [0, n)."""
    if not (isinstance(values, list) and all(type(v) is int and 0 <= v < n for v in values)):
        raise ValueError(f"{what} must be a list of vertices in [0, {n}), got {values!r}")
    return tuple(values)


def _min_endpoint(pair: tuple[int, int], radii: Sequence[float]) -> int:
    u, v = pair
    return u if radii[u] < radii[v] else v


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

    The cycle exchanges run on the forest rooted once: every vertex holds its
    parent and the weight of its parent edge. The cycle that an e2 edge (u, v)
    closes is the two climbs from u and from v, taken a step each in turn
    until one reaches a vertex the other passed, their nearest common
    ancestor. Neither climb goes more than the cycle's length, so an exchange
    costs O(cycle length), not a search of its component. Removing the
    cycle's heaviest non-path edge (x, parent of x) detaches the subtree of
    x, which holds the endpoint on x's side, say u. Reversing the parent
    pointers from u up to x and hanging u from v re-roots that subtree at u
    and attaches it through the new edge: a vertex of the subtree climbs to
    that segment, along it to u and across to v, and every other vertex
    keeps its path. So the pointers root the running forest again.
    """
    ham_edges = sorted(_ham_edges(p.space.matrix, h), key=edge_key)
    n, radii, f = p.space.n, p.r.radii, p.msf
    adj = f.adjacency()

    # Splits keep ascending order; a path edge is in the disk graph iff both radii reach across it.
    e_prime: list[Edge] = []
    e_dprime: list[Edge] = []
    e1: list[Edge] = []
    e2: list[Edge] = []
    for e in ham_edges:
        u, v, w = e
        if min(radii[u], radii[v]) >= w:
            e_prime.append(e)
            (e1 if v in adj[u] else e2).append(e)
        else:
            e_dprime.append(e)

    # Root each tree of the forest at its least vertex; a root is its own parent.
    parent = [-1] * n
    up = [0.0] * n  # weight of the edge to the parent
    for root in range(n):
        if parent[root] >= 0:
            continue
        parent[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            for y, w in adj[x].items():
                if parent[y] < 0:
                    parent[y], up[y] = x, w
                    stack.append(y)

    # Cycle exchanges: walk e2 in ascending order, swap each edge into the
    # running forest against the heaviest cycle edge outside the path.
    ham_pairs = _pairs(ham_edges)
    mark = [-1] * n  # 2i + side for the climb from e2[i]'s endpoint on that side
    tilde_e2: list[Edge] = []
    for i, (u, v, w) in enumerate(e2):
        climbs = _climb_to_meet(parent, mark, 2 * i, u, v)
        if climbs is None:
            raise BoundViolationError(
                f"disk-graph edge spans two forest components: edge ({u}, {v}, {w}), n = {n}"
            )
        best = None
        for side, climb in enumerate(climbs):
            for k in range(len(climb) - 1):
                x, y = climb[k], climb[k + 1]
                key = (up[x], x, y) if x < y else (up[x], y, x)
                if (best is None or key > best[0]) and key[1:] not in ham_pairs:
                    best = key, side, k
        # best is set: were every cycle edge on the path, they and e2 would
        # close a cycle inside the Hamiltonian path that _ham_edges checked.
        (w_out, a, b), side, k = best
        tilde_e2.append((a, b, w_out))
        climb = climbs[side]
        for j in range(k, 0, -1):
            parent[climb[j]], up[climb[j]] = climb[j - 1], up[climb[j - 1]]
        parent[climb[0]], up[climb[0]] = climbs[1 - side][0], w

    # Radius retirements: on the forest minus (e1 + tilde_e2), scan the path
    # edges missing from the disk graph; whenever the smaller-radius endpoint
    # still has forest edges, retire its heaviest one.
    resid = adj
    for u, v, _ in e1 + tilde_e2:
        del resid[u][v], resid[v][u]
    star_h: list[Edge] = []
    star_f: list[Edge] = []
    for e in e_dprime:
        me = _min_endpoint(e[:2], radii)
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


def _climb_to_meet(
    parent: list[int], mark: list[int], stamp: int, u: int, v: int
) -> tuple[list[int], list[int]] | None:
    """The tree paths from u and from v up to their nearest common ancestor,
    each listed from its endpoint up; None when u and v have different roots.
    A root is its own parent.

    The climbs alternate a step each, and the climb from u marks what it
    passes with `stamp`, the climb from v with stamp + 1; the first vertex a
    climb reaches that the other marked is the nearest common ancestor, where
    the other climb is cut. Stamps are never reused, so no reset is needed.
    """
    a, b = [u], [v]
    mark[u], mark[v] = stamp, stamp + 1
    x, y = u, v
    while True:
        px, py = parent[x], parent[y]
        if px == x and py == y:
            return None
        if px != x:
            a.append(px)
            if mark[px] == stamp + 1:
                del b[b.index(px) + 1 :]
                return a, b
            mark[px], x = stamp, px
        if py != y:
            b.append(py)
            if mark[py] == stamp:
                del a[a.index(py) + 1 :]
                return a, b
            mark[py], y = stamp + 1, py


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
    the space, read in one gather. An edge is in the disk graph iff
    min(r_u, r_v) >= its weight, tested here over the path's steps as arrays
    and by `graph.is_msf` for the rest: f must be the disk graph's MSF by that
    cycle-property check, which builds no forest and holds O(n log n) memory
    plus one row block, so no n x n array of its own.
    """
    n, d = space.n, space.matrix
    if cert.n != n:
        return [f"certificate is for n={cert.n}, space has n={n}"]
    try:
        ham_edges = _ham_edges(d, h)
    except ValueError as exc:
        return [str(exc)]
    radii = np.asarray(r.radii, dtype=float)
    problems: list[str] = []
    if not is_msf(d, radii, f):
        problems.append("forest is not the MSF of the symmetric disk graph")
    ham_weight = _fsum_edges(ham_edges)
    if ham_weight != h.weight:
        problems.append("stored path weight does not match its edge weights")

    pairs = {name: [(u, v) for u, v, _ in getattr(cert, name)] for name in cert.EDGE_FIELDS}
    sets = {name: set(field) for name, field in pairs.items()}
    e2, tilde_e2, star_h, star_f = pairs["e2"], pairs["tilde_e2"], pairs["star_h"], pairs["star_f"]
    # The pairs some check compares by weight, weighed in one gather.
    weighed = list({*e2, *tilde_e2[: len(e2)], *star_h, *star_f, *pairs["tilde_e"]})
    weight = dict(zip(weighed, d[[u for u, _ in weighed], [v for _, v in weighed]].tolist()))
    forest_pairs = f.edge_pairs()
    ham_pairs = _pairs(ham_edges)
    steps = np.asarray(h.order, dtype=np.intp)
    in_disk = np.minimum(radii[steps[:-1]], radii[steps[1:]]) >= d[steps[:-1], steps[1:]]
    e_prime_ref = {(u, v) for (u, v, _), kept in zip(ham_edges, in_disk.tolist()) if kept}
    e_dprime_ref = ham_pairs - e_prime_ref

    for name, ref, what in (
        ("e_prime", e_prime_ref, "path edges of the disk graph"),
        ("e_dprime", e_dprime_ref, "path edges outside the disk graph"),
        ("e1", e_prime_ref & forest_pairs, "e_prime edges inside the forest"),
        ("e2", e_prime_ref - forest_pairs, "e_prime edges outside the forest"),
    ):
        if sets[name] != ref:
            problems.append(f"{name} is not ({what})")
    if e2 != sorted(e2, key=lambda e: (weight[e], e)):
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
        if weight[out] > weight[kept]:
            problems.append(f"exchange {i} removed a heavier edge: w={weight[out]} > w={weight[kept]}")

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
        me = _min_endpoint(he, r.radii)
        if me not in fe:
            problems.append(f"star_f[{i}] is not incident to the smaller-radius endpoint of star_h[{i}]")
        if weight[fe] > r[me]:
            problems.append(f"retired edge {i} exceeds the endpoint radius: w={weight[fe]} > r={r[me]}")
    if math.fsum(weight[e] for e in star_f) > math.fsum(weight[e] for e in star_h):
        problems.append("retired forest edges outweigh their path edges")

    # Set algebra of the removed set.
    union = sets["e1"] | sets["tilde_e2"] | sets["star_f"]
    if sets["tilde_e"] != union or len(pairs["tilde_e"]) != len(pairs["e1"]) + len(tilde_e2) + len(star_f):
        problems.append("tilde_e is not the disjoint union of e1, tilde_e2 and star_f")
    for a, b, c in (("e1", "e2", "star_h"), ("e1", "tilde_e2", "star_f")):
        if sets[a] & sets[b] or sets[a] & sets[c] or sets[b] & sets[c]:
            problems.append(f"{a}, {b} and {c} are not pairwise disjoint")
    if math.fsum(weight[e] for e in pairs["tilde_e"]) > ham_weight:
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
        if (u, v) in residual and degree[_min_endpoint((u, v), r.radii)]:
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


def _at_most(lhs: float, rhs: float, claim: str, sides: str, **where: int) -> None:
    """Raise BoundViolationError unless lhs <= rhs, with the message
    "<claim>: <sides>", sides' fields filled from lhs, rhs and `where`
    (round, n). Formats only on failure; a NaN side raises nothing."""
    if lhs > rhs:
        raise BoundViolationError(f"{claim}: " + sides.format(lhs=lhs, rhs=rhs, **where))


def lightness_trace(p: Prepared) -> LightnessTrace:
    """Peel the disk-graph forest until at most 4 vertices survive.

    There is one path, p.path, and round 1 uses it with p.certificate. Each
    round works on one `Prepared`: it removes a certificate's edge set,
    prepares the survivors (whose MSF is the induced disk graph's) and
    shortcuts the path onto them, and the next round decomposes that
    shortcut path. Raises BoundViolationError if any step of the telescoped
    accounting fails, and ValueError on a space without the triangle
    inequality, which shortcutting needs.

    Each round's MSF is computed from its induced disk graph alone: the
    induced metric builds no MST to start from, and the previous round's
    kept edges are not passed in as known MSF edges. Those are what the
    check "kept forest weight exceeds the induced MSF weight" tests, and
    seeding the induced MSF with them would make it pass by construction.
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
        where = {"round": len(rounds) + 1, "n": n}
        _at_most(len(survivors), (4 * n) // 5, "round isolated fewer than a fifth of the vertices",
                 "round {round}, n = {n}, survivors {lhs} > 4n // 5 = {rhs}", **where)

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
        _at_most(w_kept, w_next_forest, "kept forest weight exceeds the induced MSF weight",
                 "round {round}, n = {n}, w_kept {lhs} > w_next_forest {rhs}", **where)

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
        _at_most(h.weight, rounds[0].w_ham, "path weight exceeded the first round's weight",
                 "round {round}, n = {n}, w(H) {lhs} > w(H_1) {rhs}", **where)
        cur, labels, h = nxt, tuple(labels[v] for v in survivors), next_h

    # Basis: at most 4 vertices, and none when a round isolated everything.
    local_edges = () if cur is None else cur.msf.edges
    basis_edges = tuple(canonical_edge(labels[u], labels[v], w) for u, v, w in local_edges)
    w_ham_last = 0.0 if h is None else h.weight
    basis_weight = _fsum_edges(basis_edges)
    _at_most(basis_weight, 3.0 * w_ham_last, "basis forest outweighs three times its path",
             "basis weight {lhs} > 3 * w(H_last) {rhs}")
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
    _at_most(trace.round_count, trace.max_round_bound, "round count exceeds ceil(log_{5/4} n)",
             "{lhs} > {rhs}, n = {n}", n=p.space.n)
    _at_most(w_msf, telescoped, "telescoped removal weights fall short of the forest weight",
             "w(MSF) {lhs} > telescoped {rhs}")
    _at_most(telescoped, trace.coarse_bound, "telescoped weights exceed rounds * w(H) + 3 * w(H_last)",
             "telescoped {lhs} > coarse bound {rhs}")
    _at_most(trace.coarse_bound, trace.log_bound, "coarse bound exceeds log_{5/4} n * w(H)",
             "coarse bound {lhs} > log bound {rhs}")
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
