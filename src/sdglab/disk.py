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

from .graph import Forest, Space, WeightedGraph, dense_msf


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
    """Symmetric disk graph of a space: edge (u,v) iff min(r(u), r(v)) >= d(u,v),
    +inf elsewhere. It serves the CLI `sdg` command, the benchmark tracer and
    the tests' Kruskal oracle, with a threshold of its own: the builder
    `graph.dense_msf` and the checker `graph.is_msf` each take the radii and
    test them themselves."""
    if len(r) != space.n:
        raise ValueError(f"range assignment has {len(r)} radii for {space.n} points")
    d = space.matrix
    radii = np.asarray(r.radii, dtype=float)
    return WeightedGraph(np.where(np.minimum(radii[:, None], radii[None, :]) >= d, d, np.inf))


def sdg_msf(space: Space, r: RangeAssignment) -> Forest:
    """MSF of the symmetric disk graph, equal to kruskal_msf(build_sdg(space, r)).

    It starts from the space's own MST when the space already holds it, as
    every evaluated instance does (w(MST), biased ranges and MST doubling all
    read it). It never builds that MST: a trace round's induced metric needs
    no MST of its own, and computing one only to start from it made the
    benchmark's rounds 4-39 % slower than the masked Prim alone.

    An MST edge e = (u, v) with min(r(u), r(v)) >= w(e) is the lightest edge
    of the space, in the total order, between the two sides that removing e
    splits its tree into. The disk graph has a subset of those edges and
    keeps e, so e is its lightest there too and, by the cut property, an edge
    of the disk graph's MSF. If the radii keep every MST edge, that MSF
    therefore contains the MST, and it has no more edges (a subgraph has at
    least as many components), so the MST itself is returned: no masked copy
    and no second Prim. This holds for every biased range assignment, whose
    radii reach each vertex's heaviest MST edge. Otherwise `dense_msf` builds
    the disk graph's MSF from the space's matrix and the radii, with the kept
    edges (none without the MST) as known MSF edges.
    """
    if len(r) != space.n:
        raise ValueError(f"range assignment has {len(r)} radii for {space.n} points")
    mst = vars(space).get("mst")  # `Space.mst` if it was computed; never computed here
    radii = r.radii
    kept = [] if mst is None else [e for e in mst.edges if radii[e[0]] >= e[2] and radii[e[1]] >= e[2]]
    if mst is not None and len(kept) == len(mst.edges):
        return mst
    return dense_msf(space.matrix, kept, radii=radii)
