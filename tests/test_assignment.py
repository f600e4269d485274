"""Claim 3: the heaviest-incident-edge assignment on T = MSF(SDG(M, r'))."""
import math

import pytest
from hypothesis import given, settings

from sdglab.assignment import bounded_assignment, cost_ratio_check
from sdglab.decomposition import Prepared, lightness_bound
from sdglab.disk import RangeAssignment, sdg_msf
from sdglab.instances import (
    gen_chain_metric,
    gen_random_euclidean,
    gen_random_matrix_metric,
    gen_random_ranges,
)

from strategies import metric_range_pairs


def _check(m, r_prime):
    p = Prepared(m, r_prime)
    report = bounded_assignment(p)
    assert report.feasible
    assert all(report.ranges[v] <= r_prime[v] for v in range(m.n))
    assert report.cost == math.fsum(report.ranges.radii) <= 2.0 * report.w_forest
    assert report.w_forest == p.msf.weight
    # The assignment keeps every T-edge and stays inside SDG(M, r'), so T is its MSF.
    assert sdg_msf(m, report.ranges) == p.msf
    assert report.lower_bound == m.mst.weight
    assert report.connected_input == p.msf.connected
    return report


@given(metric_range_pairs(min_n=2, max_n=24))
@settings(max_examples=40)
def test_assignment_properties_random(pair):
    m, r = pair
    report = _check(m, r)
    if report.connected_input:
        ratio = cost_ratio_check(report, m.n)
        assert ratio.ok
        assert ratio.ratio == report.cost / report.lower_bound <= ratio.bound == 2.0 * lightness_bound(m.n)
    else:
        with pytest.raises(ValueError, match="disconnected"):
            cost_ratio_check(report, m.n)


@pytest.mark.parametrize("n", [2, 5, 16, 40])
@pytest.mark.parametrize("kind", ["l1", "l2", "linf", "matrix"])
def test_biased_ranges_give_a_connected_assignment(kind, n):
    m = (
        gen_random_matrix_metric(n, 900 + n)
        if kind == "matrix"
        else gen_random_euclidean(n, 2, {"l1": 1.0, "l2": 2.0, "linf": math.inf}[kind], 900 + n)
    )
    # Biased radii reach every heaviest incident MST edge, so T is the MST.
    report = _check(m, gen_random_ranges(m, "biased", 901 + n))
    assert report.connected_input and report.w_forest == report.lower_bound
    assert cost_ratio_check(report, n).ok


def test_isolated_vertices_get_zero_radius():
    # Radii below every distance leave SDG(M, r') without edges.
    m = gen_chain_metric(5).space
    report = _check(m, RangeAssignment.constant(5, 0.5))
    assert report.ranges.radii == (0.0,) * 5 and report.cost == 0.0
    assert not report.connected_input
    with pytest.raises(ValueError, match="undefined for a disconnected"):
        cost_ratio_check(report, 5)


def test_chain_assignment_by_hand():
    # Unit radii on the chain: T is the unit path, so every heaviest incident edge weighs 1.
    b = gen_chain_metric(6)
    report = _check(b.space, b.ranges)
    assert report.ranges.radii == (1.0,) * 6
    assert report.cost == 6.0 and report.w_forest == 5.0 == report.lower_bound
    assert cost_ratio_check(report, 6).ratio == 6.0 / 5.0
