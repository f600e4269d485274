"""Bounded range assignment: connect the points without exceeding per-point caps.

Given per-point maximum radii r', take T = MSF(SDG(M, r')) and assign every
point the weight of its heaviest incident T-edge. The result stays below r',
its disk graph contains T (so it preserves T's connectivity component by
component), and by double counting its cost is at most 2 * w(T). Combined with
the lightness bound on w(T) this is a logarithmic-factor approximation of the
unbounded optimum whenever SDG(M, r') is connected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .decomposition import Prepared, lightness_bound
from .disk import RangeAssignment


@dataclass(frozen=True)
class AssignmentReport:
    ranges: RangeAssignment  # computed assignment, pointwise <= the bounding function
    cost: float  # sum of assigned radii
    w_forest: float  # weight of T = MSF(SDG(M, r'))
    lower_bound: float  # w(MST(M)), a lower bound on the unbounded optimum
    feasible: bool
    connected_input: bool  # whether SDG(M, r') was connected


def bounded_assignment(p: Prepared) -> AssignmentReport:
    """Heaviest-incident-edge assignment on the MSF of the capped disk graph,
    with p.r as the bounding function r'."""
    forest = p.msf
    out = RangeAssignment(radii=forest.heaviest_incident())  # isolated vertices get 0
    feasible = all(out[v] <= p.r[v] for v in range(p.space.n))
    return AssignmentReport(
        ranges=out,
        cost=math.fsum(out.radii),
        w_forest=forest.weight,
        lower_bound=p.space.mst.weight,
        feasible=feasible,
        connected_input=forest.connected,
    )


@dataclass(frozen=True)
class CostRatioReport:
    ok: bool
    ratio: float  # cost / w(MST(M))
    bound: float  # 4 * log_{5/4} n


def cost_ratio_check(report: AssignmentReport, n: int) -> CostRatioReport:
    """Check cost <= 2 * w(T) and cost <= 4 * log_{5/4} n * w(MST(M)).

    Only defined for connected inputs; for a disconnected capped disk graph
    the global MST is unreachable and the ratio is meaningless.
    """
    if not report.connected_input:
        raise ValueError("cost ratio is undefined for a disconnected capped disk graph")
    if report.lower_bound <= 0:
        raise ValueError("lower bound must be positive")
    ratio = report.cost / report.lower_bound
    bound = 2.0 * lightness_bound(n)
    ok = report.cost <= 2.0 * report.w_forest and ratio <= bound and report.feasible
    return CostRatioReport(ok=ok, ratio=ratio, bound=bound)
