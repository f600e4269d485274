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

from .graph import Forest, Space, WeightedGraph, dense_msf, row_blocks


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
    the tests' Kruskal oracle, with a threshold of its own: the builders mask
    with `sdg_matrix`, and the verifier tests the radii itself in `graph.is_msf`."""
    if len(r) != space.n:
        raise ValueError(f"range assignment has {len(r)} radii for {space.n} points")
    d = space.matrix
    radii = np.asarray(r.radii, dtype=float)
    return WeightedGraph(np.where(np.minimum(radii[:, None], radii[None, :]) >= d, d, np.inf))


def sdg_matrix(d: np.ndarray, r: RangeAssignment) -> np.ndarray:
    """Dense disk graph of a weight matrix: d(u,v) where min(r(u), r(v)) >= d(u,v),
    +inf elsewhere. Absent (+inf) entries stay absent, since radii are finite.
    It is filled one row block at a time, so it is the only n x n array made."""
    if len(r) != d.shape[0]:
        raise ValueError(f"range assignment has {len(r)} radii for {d.shape[0]} vertices")
    radii = np.asarray(r.radii, dtype=float)
    out = np.full(d.shape, np.inf)
    for rows in row_blocks(len(radii)):
        block = d[rows]
        np.copyto(out[rows], block, where=(radii[rows, None] >= block) & (radii >= block))
    return out


def sdg_msf(space: Space, r: RangeAssignment) -> Forest:
    """MSF of the symmetric disk graph, by `dense_msf` on the masked distance matrix;
    equal to kruskal_msf(build_sdg(space, r))."""
    return dense_msf(sdg_matrix(space.matrix, r))
