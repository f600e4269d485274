import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from sdglab import decomposition
from sdglab.decomposition import (
    BoundViolationError,
    DecompositionCertificate,
    Prepared,
    decompose,
    lightness_bound,
    lightness_trace,
    log_rounds_bound,
    verify_certificate,
    weight_coefficient,
)
from sdglab.disk import RangeAssignment, build_sdg
from sdglab.graph import Forest, complete_graph, is_msf, kruskal_msf
from sdglab.hamiltonian import EXACT_CUTOFF, HamPath, approx_ham_path, exact_min_ham_path, path_weight
from sdglab.instances import (
    gen_c3,
    gen_chain_metric,
    gen_line_graph,
    gen_random_euclidean,
    gen_random_ranges,
    gen_star_metric,
)
from sdglab.metric import Metric
from sdglab.sweep import build_instance, standard_suite

import support
from strategies import metric_range_pairs


def _setup(bundle, exact=True):
    """Space, radii, Kruskal forest and path; graphs always get the exact path."""
    space, r = bundle.space, bundle.ranges
    forest = kruskal_msf(build_sdg(space, r))
    h = exact_min_ham_path(space) if exact or not space.is_metric else approx_ham_path(space)
    return space, r, forest, h


def test_chain_certificate_shape():
    space, r, forest, h = _setup(gen_chain_metric(5))
    cert = decompose(Prepared(space, r), h)
    # disk graph, forest and path coincide on the unit path
    assert len(cert.e_prime) == 4 and cert.e_dprime == ()
    assert cert.e2 == () and cert.tilde_e2 == ()
    assert cert.star_h == () and cert.star_f == ()
    assert set(cert.tilde_e) == set(forest.edges)
    assert cert.isolated == (0, 1, 2, 3, 4)
    assert cert.weights["tilde_e"] == 4.0 == h.weight
    assert verify_certificate(space, r, forest, h, cert) == []


def test_star_certificate_verifies():
    space, r, forest, h = _setup(gen_star_metric(10))
    cert = decompose(Prepared(space, r), h)
    assert verify_certificate(space, r, forest, h, cert) == []
    assert cert.weights["tilde_e"] <= h.weight
    assert len(cert.isolated) >= 2


def test_c3_certificate_by_hand():
    space, r, forest, h = _setup(gen_c3(1000.0))
    assert h.weight == 3.0
    cert = decompose(Prepared(space, r), h)
    # path = b-a-c: the light edge sits in both the disk graph and its MSF,
    # the heavy-breaking edge (a,c) is missing from the disk graph, and its
    # smaller-radius endpoint a is already isolated once (a,b) is removed.
    assert {(u, v) for u, v, _ in cert.e_prime} == {(0, 1)}
    assert {(u, v) for u, v, _ in cert.e_dprime} == {(0, 2)}
    assert cert.e2 == () and cert.star_h == ()
    assert {(u, v) for u, v, _ in cert.tilde_e} == {(0, 1)}
    assert cert.isolated == (0,)
    assert verify_certificate(space, r, forest, h, cert) == []


def test_line_graph_certificate_verifies():
    space, r, forest, h = _setup(gen_line_graph(5, 1000.0, 1e-4))
    cert = decompose(Prepared(space, r), h)
    assert verify_certificate(space, r, forest, h, cert) == []
    assert len(cert.isolated) >= 1


def _star4_with_full_range():
    """Star metric with ranges covering the diameter: the minimum path uses a
    leaf-to-leaf edge outside the MSF, so the cycle-exchange block is live."""
    b = gen_star_metric(4)
    r = RangeAssignment.constant(4, 2.0)
    m = b.space
    forest = kruskal_msf(build_sdg(m, r))
    h = exact_min_ham_path(m)
    return m, r, forest, h


def test_cycle_exchange_on_complete_star():
    m, r, forest, h = _star4_with_full_range()
    cert = decompose(Prepared(m, r), h)
    assert len(cert.e2) == 1 and len(cert.tilde_e2) == 1
    assert cert.tilde_e2[0][2] <= cert.e2[0][2]
    assert verify_certificate(m, r, forest, h, cert) == []


def test_decompose_rejects_an_e2_edge_across_forest_components():
    # The exchange removes the hub edge that the path leaves out of the
    # cycle; a cached forest without that edge cuts the cycle open.
    m, r, forest, h = _star4_with_full_range()
    (needed,) = decompose(Prepared(m, r), h).tilde_e2
    p = Prepared(m, r)
    p.__dict__["msf"] = Forest(4, tuple(e for e in forest.edges if e != needed))
    for build in (decompose, support.bfs_decompose):
        with pytest.raises(BoundViolationError, match="disk-graph edge spans two forest components"):
            build(p, h)


def _checked_against_bfs_oracle(p: Prepared) -> list[int]:
    """Run p's trace with every certificate compared field by field with the
    breadth-first oracle's on the same round; the exchange count per round."""
    exchanges = []

    def checked(q, h):
        cert = decompose(q, h)
        assert cert == support.bfs_decompose(q, h)
        exchanges.append(len(cert.e2))
        return cert

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposition, "decompose", checked)
        lightness_trace(p)
    return exchanges


@given(metric_range_pairs(min_n=2, max_n=14))
@settings(max_examples=30)
def test_rooted_exchanges_match_the_bfs_oracle_random(pair):
    m, r = pair
    for mode in ("approx", "auto", "exact"):
        _checked_against_bfs_oracle(Prepared(m, r, mode))


def _oracle_instance(kind: str, n: int):
    if kind == "star":  # radius 2 keeps every edge, and every weight is 1 or 2
        return gen_star_metric(n).space, RangeAssignment.constant(n, 2.0)
    if kind in ("chain", "chain-unit"):
        b = gen_chain_metric(n)
        return b.space, b.ranges if kind == "chain-unit" else RangeAssignment.constant(n, 2.0)
    p = {"l1": 1.0, "linf": math.inf, "l2": 2.0}[kind.split("-")[0]]
    m = gen_random_euclidean(n, 2, p, 7)
    return m, gen_random_ranges(m, kind.split("-")[1], 8)


@pytest.mark.parametrize("mode, n", [("approx", 16), ("auto", 16), ("exact", 16), ("approx", 200), ("auto", 200)])
@pytest.mark.parametrize(
    "kind", ["star", "chain", "chain-unit", "l1-uniform", "l1-biased", "linf-uniform", "linf-biased", "l2-uniform"]
)
def test_rooted_exchanges_match_the_bfs_oracle(kind, mode, n):
    m, r = _oracle_instance(kind, n)
    p = Prepared(m, r, mode)
    if kind == "l2-uniform":
        assert not p.msf.connected
    exchanges = _checked_against_bfs_oracle(p)
    if not kind.startswith("chain"):  # a chain's path is its forest
        assert exchanges[0] > 0
    if n == 200 and kind.startswith("l"):  # random points peel in more than one round
        assert len(exchanges) >= 2 and exchanges[1] > 0


def test_tamper_dropped_edge_is_reported():
    space, r, forest, h = _setup(gen_chain_metric(5))
    cert = decompose(Prepared(space, r), h)
    bad = dataclasses.replace(cert, tilde_e=cert.tilde_e[1:])
    problems = verify_certificate(space, r, forest, h, bad)
    assert problems
    assert any("disjoint union" in p or "isolated" in p for p in problems)


def test_tamper_swapped_exchange_edge_is_reported():
    m, r, forest, h = _star4_with_full_range()
    cert = decompose(Prepared(m, r), h)
    # replace the exchanged edge with the heavier cycle edge that lies on the path
    bad = dataclasses.replace(cert, tilde_e2=(cert.e2[0],))
    problems = verify_certificate(m, r, forest, h, bad)
    assert any("belongs to the path" in p for p in problems)


def test_verifier_rejects_wrong_forest():
    # Uniform ranges leave this disk graph disconnected (an MSF of 22 edges),
    # so the metric's MST (23 edges) is a forest that the verifier must refuse.
    # On the unit-radius chain the two forests coincide and nothing is tested.
    m = gen_random_euclidean(24, 2, 2.0, 808)
    r = gen_random_ranges(m, "uniform", 809)
    p = Prepared(m, r)
    assert m.mst != p.msf
    problems = verify_certificate(m, r, m.mst, p.path, p.certificate)
    assert "forest is not the MSF of the symmetric disk graph" in problems


def test_verifier_rejects_a_forest_edge_outside_the_disk_graph():
    # Points 0, 1, 3, 4 with unit radii: the disk graph is {(0,1), (2,3)}.
    # Adding the metric edge (1,2), whose radii fall short of its weight 2,
    # joins the two components, and no disk-graph edge crosses them, so only
    # the radii test on the forest's own edges can refuse it.
    m = Metric.euclidean([[0.0], [1.0], [3.0], [4.0]])
    r = RangeAssignment.constant(4, 1.0)
    p = Prepared(m, r)
    assert p.msf == Forest(4, ((0, 1, 1.0), (2, 3, 1.0)))
    bad = Forest(4, ((0, 1, 1.0), (2, 3, 1.0), (1, 2, 2.0)))
    assert bad == m.mst and not is_msf(m.matrix, np.asarray(r.radii), bad)
    problems = verify_certificate(m, r, bad, p.path, p.certificate)
    assert "forest is not the MSF of the symmetric disk graph" in problems
    assert verify_certificate(m, r, p.msf, p.path, p.certificate) == []


def test_decompose_rejects_non_permutation():
    space, r, forest, h = _setup(gen_chain_metric(5))
    bad = HamPath(order=(0, 1, 2, 3, 3), weight=h.weight)
    with pytest.raises(ValueError, match="hamiltonian path order is not a permutation of the vertices"):
        decompose(Prepared(space, r), bad)
    # 1.0 == 1 passes the permutation test; the steps are gathered uncast.
    with pytest.raises(IndexError):
        decompose(Prepared(space, r), HamPath(order=(0, 1.0, 2, 3, 4), weight=h.weight))


def test_decompose_deterministic():
    m = gen_random_euclidean(24, 2, 2.0, 808)
    r = gen_random_ranges(m, "uniform", 809)
    h = approx_ham_path(m)
    assert decompose(Prepared(m, r), h) == decompose(Prepared(m, r), h)


@given(metric_range_pairs(min_n=5, max_n=32))
@settings(max_examples=30)
def test_random_certificates_verify(pair):
    m, r = pair
    forest = kruskal_msf(build_sdg(m, r))
    h = approx_ham_path(m)
    cert = decompose(Prepared(m, r), h)
    assert verify_certificate(m, r, forest, h, cert) == []
    assert cert.weights["tilde_e"] <= h.weight
    assert len(cert.isolated) >= math.ceil(m.n / 5)


def test_trace_single_point():
    m = gen_random_euclidean(2, 1, 2.0, 3).induce([0])[0]
    trace = lightness_trace(Prepared(m, RangeAssignment.constant(1, 1.0)))
    assert trace.rounds == ()
    assert trace.w_msf == 0.0 and trace.telescoped == 0.0


def test_trace_basis_only_n4():
    m = gen_random_euclidean(4, 2, 2.0, 10)
    r = RangeAssignment.constant(4, m.diameter())
    trace = lightness_trace(Prepared(m, r))
    assert trace.round_count == 0
    assert trace.w_msf <= 3.0 * trace.w_ham_last
    assert 3.0 < math.log(4) / math.log(1.25)  # basis bound sits under the log bound


def test_trace_chain_single_round():
    b = gen_chain_metric(5)
    trace = lightness_trace(Prepared(b.space, b.ranges))
    assert trace.round_count == 1
    assert trace.basis_labels == ()
    assert trace.telescoped == trace.w_msf == 4.0


def test_trace_hundred_points():
    m = gen_random_euclidean(100, 2, 2.0, 555)
    r = gen_random_ranges(m, "biased", 556)
    trace = lightness_trace(Prepared(m, r, ham_mode="approx"))
    assert trace.round_count <= 21 == log_rounds_bound(100)
    assert trace.w_msf <= trace.telescoped <= trace.coarse_bound <= trace.log_bound


def test_trace_round_labels_shrink():
    m = gen_random_euclidean(60, 3, 1.0, 77)
    r = gen_random_ranges(m, "uniform", 78)
    trace = lightness_trace(Prepared(m, r, ham_mode="approx"))
    sizes = [len(rd.labels) for rd in trace.rounds] + [len(trace.basis_labels)]
    for a, b in zip(sizes, sizes[1:]):
        assert b <= (4 * a) // 5
    hams = [rd.w_ham for rd in trace.rounds]
    assert all(x >= y for x, y in zip(hams, hams[1:]))


def test_trace_exact_mode_small():
    m = gen_random_euclidean(12, 2, 2.0, 202)
    r = gen_random_ranges(m, "uniform", 203)
    trace = lightness_trace(Prepared(m, r, ham_mode="exact"))
    assert trace.w_msf <= trace.log_bound or trace.n <= 1


def _first_path_instances():
    for bundle in (gen_star_metric(9), gen_chain_metric(12)):
        yield bundle.space, bundle.ranges
    for seed, (n, d, p) in enumerate([(4, 2, 2.0), (10, 1, 1.0), (14, 2, math.inf), (20, 3, 2.0)]):
        m = gen_random_euclidean(n, d, p, 600 + seed)
        for mode in ("uniform", "biased"):
            yield m, gen_random_ranges(m, mode, 700 + seed)


@pytest.mark.parametrize("ham_mode", ["exact", "approx", "auto"])
def test_trace_first_path_is_the_solved_path(ham_mode):
    # The first round reuses the prepared path and certificate, not a copy.
    for m, r in _first_path_instances():
        if m.n <= 4 or (ham_mode == "exact" and m.n > 16):
            continue
        p = Prepared(m, r, ham_mode)
        trace = lightness_trace(p)
        assert trace.rounds[0].certificate is p.certificate
        assert trace.rounds[0].w_ham == p.path.weight == trace.w_ham_first
        exact = ham_mode == "exact" or (ham_mode == "auto" and m.n <= EXACT_CUTOFF)
        assert p.path == (exact_min_ham_path(m) if exact else approx_ham_path(m))


def test_later_rounds_shortcut_the_first_path():
    # Every later round's path is round 1's path restricted to its survivors,
    # as in the telescoping argument, even where an exact solve of the
    # survivors would give a lighter path.
    spec = next(s for s in standard_suite(1, trials=1) if s.id == "euclidean-d2p2-n011-uniform-t0")
    bundle = build_instance(spec)
    p = Prepared(bundle.space, bundle.ranges, "auto")
    trace = lightness_trace(p)
    assert trace.round_count >= 2
    for rd in trace.rounds[1:]:
        survivors = set(rd.labels)
        assert rd.w_ham == path_weight(bundle.space, [v for v in p.path.order if v in survivors])


def _prepared_n45():
    spec = next(s for s in standard_suite(1, trials=1) if s.id == "euclidean-d2p2-n045-uniform-t0")
    bundle = build_instance(spec)
    return Prepared(bundle.space, bundle.ranges)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"isolated": ()}, "round isolated fewer than a fifth of the vertices"),
        ({"tilde_e": ()}, "kept forest weight exceeds the induced MSF weight"),
    ],
)
def test_trace_rejects_a_wrong_first_certificate(fields, message):
    p = _prepared_n45()
    p.__dict__["certificate"] = dataclasses.replace(p.certificate, **fields)
    with pytest.raises(BoundViolationError, match=message):
        lightness_trace(p)


@pytest.mark.parametrize(
    "scale, message",
    [
        (4.0, "path weight exceeded the first round's weight"),
        (0.0, "basis forest outweighs three times its path"),
    ],
)
def test_trace_rejects_a_wrong_shortcut_weight(scale, message, monkeypatch):
    shortcut = decomposition.shortcut_path

    def scaled(space, h, subset):
        sub = shortcut(space, h, subset)
        return HamPath(order=sub.order, weight=scale * sub.weight)

    monkeypatch.setattr(decomposition, "shortcut_path", scaled)
    with pytest.raises(BoundViolationError, match=message):
        lightness_trace(_prepared_n45())


def test_trace_rejects_more_rounds_than_the_bound(monkeypatch):
    monkeypatch.setattr(decomposition, "log_rounds_bound", lambda n: 0)
    with pytest.raises(BoundViolationError, match=re.escape("round count exceeds ceil(log_{5/4} n)")):
        lightness_trace(_prepared_n45())


def test_bound_violations_show_their_numbers(monkeypatch):
    # Each failed check ends its message with its numbers: the round and n
    # within a round, both sides of the inequality, and decompose's edge.
    trace = lightness_trace(_prepared_n45())
    first, second = trace.rounds[:2]
    p = _prepared_n45()
    p.__dict__["certificate"] = dataclasses.replace(p.certificate, isolated=())
    with pytest.raises(BoundViolationError) as info:
        lightness_trace(p)
    assert str(info.value).endswith(": round 1, n = 45, survivors 45 > 4n // 5 = 36")

    shortcut = decomposition.shortcut_path

    def scaled(space, h, subset):
        sub = shortcut(space, h, subset)
        return HamPath(order=sub.order, weight=4.0 * sub.weight)

    with monkeypatch.context() as patch:
        patch.setattr(decomposition, "shortcut_path", scaled)
        with pytest.raises(BoundViolationError) as info:
            lightness_trace(_prepared_n45())
    n = len(second.labels)
    assert str(info.value).endswith(f": round 2, n = {n}, w(H) {4.0 * second.w_ham} > w(H_1) {first.w_ham}")

    monkeypatch.setattr(decomposition, "log_rounds_bound", lambda n: 0)
    with pytest.raises(BoundViolationError) as info:
        lightness_trace(_prepared_n45())
    assert str(info.value).endswith(f": {trace.round_count} > 0, n = 45")

    m, r, forest, h = _star4_with_full_range()
    cert = decompose(Prepared(m, r), h)
    p = Prepared(m, r)
    p.__dict__["msf"] = Forest(4, tuple(e for e in forest.edges if e != cert.tilde_e2[0]))
    with pytest.raises(BoundViolationError) as info:
        decompose(p, h)
    assert str(info.value).endswith(f": edge {cert.e2[0]}, n = 4")


# The three checks after the last round hold on every sound trace, so each
# test breaks one side of its inequality and pins the message's numbers.
def test_trace_rejects_a_forest_heavier_than_the_telescoped_weights():
    trace = lightness_trace(_prepared_n45())
    p = _prepared_n45()
    vars(p.msf)["weight"] = 1e9
    with pytest.raises(BoundViolationError) as info:
        lightness_trace(p)
    assert str(info.value) == (
        "telescoped removal weights fall short of the forest weight: "
        f"w(MSF) 1000000000.0 > telescoped {trace.telescoped}"
    )


def test_trace_rejects_telescoped_weights_above_the_coarse_bound(monkeypatch):
    trace = lightness_trace(_prepared_n45())
    monkeypatch.setattr(decomposition.LightnessTrace, "coarse_bound", 0.0)
    with pytest.raises(BoundViolationError) as info:
        lightness_trace(_prepared_n45())
    assert str(info.value) == (
        "telescoped weights exceed rounds * w(H) + 3 * w(H_last): "
        f"telescoped {trace.telescoped} > coarse bound 0.0"
    )


def test_trace_rejects_a_coarse_bound_above_the_log_bound(monkeypatch):
    trace = lightness_trace(_prepared_n45())
    monkeypatch.setattr(decomposition.LightnessTrace, "log_bound", 0.0)
    with pytest.raises(BoundViolationError) as info:
        lightness_trace(_prepared_n45())
    assert str(info.value) == (
        "coarse bound exceeds log_{5/4} n * w(H): "
        f"coarse bound {trace.coarse_bound} > log bound 0.0"
    )


def test_prepared_rejects_bad_mode_and_radii_count():
    m = gen_random_euclidean(8, 2, 2.0, 5)
    with pytest.raises(ValueError, match="unknown ham_mode 'fast'"):
        Prepared(m, gen_random_ranges(m, "biased", 6), "fast")
    with pytest.raises(ValueError, match="range assignment has 7 radii for 8 points"):
        Prepared(m, RangeAssignment.constant(7, 1.0))
    with pytest.raises(ValueError, match="approximate paths need a metric"):
        Prepared(gen_c3(1000.0).space, gen_c3(1000.0).ranges, "approx").path


@pytest.mark.parametrize("bundle", [gen_c3(1000.0), gen_line_graph(5, 1000.0, 1e-4)], ids=["c3", "line"])
def test_trace_rejects_a_graph_before_its_first_round(bundle):
    p = Prepared(bundle.space, bundle.ranges, "exact")
    with pytest.raises(ValueError, match="triangle inequality"):
        lightness_trace(p)
    assert "certificate" not in vars(p)  # no round was decomposed


@given(metric_range_pairs(min_n=1, max_n=24))
@settings(max_examples=25)
def test_trace_invariants_random(pair):
    m, r = pair
    trace = lightness_trace(Prepared(m, r, ham_mode="approx" if m.n > 2 else "auto"))
    assert trace.round_count <= trace.max_round_bound
    assert trace.w_msf <= trace.telescoped
    if m.n >= 2:
        assert trace.telescoped <= trace.coarse_bound <= trace.log_bound


def test_weight_coefficient_full_range_is_one():
    m = gen_random_euclidean(13, 2, 2.0, 6)
    r = RangeAssignment.constant(13, m.diameter())
    report = weight_coefficient(Prepared(m, r))
    assert report.coefficient == 1.0 and report.connected


def test_weight_coefficient_chain_is_one():
    b = gen_chain_metric(8)
    report = weight_coefficient(Prepared(b.space, b.ranges))
    assert report.coefficient == 1.0
    assert report.w_msf_sdg == report.w_mst_metric == 7.0


def test_weight_coefficient_bound_value():
    assert lightness_bound(5) == 2.0 * math.log(5) / math.log(1.25)


def test_graph_coefficient_line_family():
    b = gen_line_graph(5, 1000.0, 1e-4)
    report = weight_coefficient(Prepared(b.space, b.ranges))
    assert report.coefficient == b.reference["weight_coefficient"]
    assert math.isinf(report.bound)
    assert abs(report.coefficient - 3.0) / 3.0 < 0.01


def test_graph_coefficient_c3_grows_with_w():
    for w in (10.0, 100.0, 1000.0):
        b = gen_c3(w)
        report = weight_coefficient(Prepared(b.space, b.ranges))
        assert report.coefficient == (w + 1.0) / 3.0


@given(metric_range_pairs(max_n=16))
@settings(max_examples=25)
def test_metric_and_graph_mode_agree(pair):
    m, r = pair
    assert build_sdg(m, r).edges == build_sdg(complete_graph(m), r).edges


@given(metric_range_pairs(min_n=2, max_n=20))
@settings(max_examples=30)
def test_weight_coefficient_never_exceeds_bound(pair):
    m, r = pair
    report = weight_coefficient(Prepared(m, r))  # raises BoundViolationError on failure
    assert report.coefficient <= report.bound


def test_graph_path_step_outside_the_graph_is_reported():
    # The line graph joins only the endpoints to the middles, so 1-2 is no edge.
    space, r, forest, good = _setup(gen_line_graph(5, 1000.0, 1e-4))
    cert = decompose(Prepared(space, r), good)
    h = HamPath(order=(0, 1, 2, 3, 4), weight=0.0)
    with pytest.raises(ValueError, match=r"path step \(1,2\) is not an edge of the graph"):
        decompose(Prepared(space, r), h)
    assert verify_certificate(space, r, forest, h, cert) == [
        "path step (1,2) is not an edge of the graph"
    ]


@pytest.mark.parametrize(
    "bundle", [gen_chain_metric(6), gen_star_metric(5), gen_c3(1000.0), gen_line_graph(5, 1000.0, 1e-4)]
)
def test_certificate_dict_round_trip(bundle):
    space, r, forest, h = _setup(bundle)
    cert = decompose(Prepared(space, r), h)
    assert DecompositionCertificate.from_dict(cert.to_dict(), space) == cert
