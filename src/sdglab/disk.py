"""Symmetric disk graphs: threshold subgraphs induced by transmission radii.

An edge (u, v) is kept exactly when both endpoints' radii are at least the
edge weight; the comparison is >= with no epsilon slack, so a radius equal to
a distance includes the edge. Disconnected results are first-class; downstream
code consumes spanning forests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import Forest, Space, WeightedGraph, dense_msf, distance_matrix, metric_mst
from .metric import Metric


@dataclass(frozen=True)
class RangeAssignment:
    """Per-point nonnegative transmission radii."""

    radii: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        for i, r in enumerate(self.radii):
            if not (r >= 0.0) or math.isinf(r):
                raise ValueError(f"radius {r} at vertex {i} must be finite and >= 0")

    def __len__(self) -> int:
        return len(self.radii)

    def __getitem__(self, i: int) -> float:
        return self.radii[i]

    @staticmethod
    def constant(n: int, c: float) -> "RangeAssignment":
        return RangeAssignment(radii=(float(c),) * n)

    def restrict(self, subset: Iterable[int]) -> "RangeAssignment":
        return RangeAssignment(radii=tuple(self.radii[v] for v in subset))


def build_sdg(space: Space, r: RangeAssignment) -> WeightedGraph:
    """Symmetric disk graph of a space: edge (u,v) iff min(r(u), r(v)) >= d(u,v).
    A graph's absent (+inf) edges stay absent, since radii are finite."""
    if len(r) != space.n:
        raise ValueError(f"range assignment has {len(r)} radii for {space.n} points")
    d = distance_matrix(space)
    radii = np.asarray(r.radii, dtype=float)
    reach = np.minimum(radii[:, None], radii[None, :])
    iu, iv = np.triu_indices(space.n, 1)
    keep = reach[iu, iv] >= d[iu, iv]
    edges = [
        (int(a), int(b), float(w))
        for a, b, w in zip(iu[keep], iv[keep], d[iu, iv][keep])
    ]
    return WeightedGraph(n=space.n, edges=tuple(edges))


def sdg_matrix(d: np.ndarray, r: RangeAssignment) -> np.ndarray:
    """Dense disk graph of a weight matrix: d(u,v) where min(r(u), r(v)) >= d(u,v),
    +inf elsewhere. Absent (+inf) entries stay absent, since radii are finite."""
    if len(r) != d.shape[0]:
        raise ValueError(f"range assignment has {len(r)} radii for {d.shape[0]} vertices")
    radii = np.asarray(r.radii, dtype=float)
    return np.where(np.minimum.outer(radii, radii) >= d, d, np.inf)


def sdg_msf(space: Space, r: RangeAssignment) -> Forest:
    """MSF of the symmetric disk graph, by `dense_msf` on the masked distance matrix;
    equal to kruskal_msf(build_sdg(space, r))."""
    return dense_msf(sdg_matrix(distance_matrix(space), r))


def _unit_ranges(n: int, c: float) -> RangeAssignment:
    if not c > 0:
        raise ValueError(f"disk radius must be positive, got {c}")
    return RangeAssignment.constant(n, c)


def build_udg(m: Metric, c: float) -> WeightedGraph:
    """Unit disk graph: the symmetric disk graph under the constant assignment c."""
    return build_sdg(m, _unit_ranges(m.n, c))


@dataclass(frozen=True)
class UdgContainmentReport:
    ok: bool
    connected: bool
    contained: bool
    equal: bool | None  # edge-set equality with MST(M); None when disconnected
    coefficient: float | None
    message: str


def udg_msf_containment(m: Metric, c: float) -> UdgContainmentReport:
    """Check MSF(UDG(M,c)) against MST(M) under the shared total edge order.

    Containment must always hold; if the UDG is connected, the two edge sets
    must coincide and the weight ratio is exactly 1.
    """
    msf_udg = sdg_msf(m, _unit_ranges(m.n, c))
    mst = metric_mst(m)
    contained = msf_udg.edge_pairs() <= mst.edge_pairs()
    connected = msf_udg.connected
    equal = None
    if connected:
        equal = msf_udg.edge_pairs() == mst.edge_pairs()
    coefficient = None
    if mst.weight > 0:
        coefficient = msf_udg.weight / mst.weight
    ok = contained and (equal is not False)
    if ok:
        message = "ok"
    elif not contained:
        stray = sorted(msf_udg.edge_pairs() - mst.edge_pairs())[0]
        message = f"UDG forest edge {stray} is not an MST edge"
    else:
        message = "connected UDG forest differs from the MST"
    return UdgContainmentReport(
        ok=ok,
        connected=connected,
        contained=contained,
        equal=equal,
        coefficient=coefficient,
        message=message,
    )
