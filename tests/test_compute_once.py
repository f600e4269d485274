"""One evaluation computes each derived object once.

Every `sdglab` module's binding of `dense_msf`, `kruskal_msf`, `decompose`,
`approx_ham_path` and `exact_min_ham_path` is replaced by a counting wrapper
(modules import by name, so patching the defining module alone would miss
calls). An evaluation then runs `dense_msf` on the full n x n matrix once,
for the metric MST, which it builds first, when the radii keep every MST
edge, as biased ranges always do: the disk-graph MSF is then that MST.
Otherwise it runs once more, for the disk-graph MSF. Biased ranges add none
of their own: their generator reads the same `Metric.mst` that the
evaluation does. Every other `dense_msf` call is the disk-graph MSF of one
round's survivors, so there is one per round that leaves survivors: a
round's induced metric never builds an MST of its own. The test derives
these counts on its own, from `build_sdg` and Kruskal. An evaluation
decomposes once per peeling round, the first round reusing the evaluation's
own certificate, and builds one path, for the first round, exactly or by
MST doubling as `solves_exactly` decides: later rounds shortcut it and never
solve again. It never runs Kruskal: the verifier checks the disk-graph MSF
by the cycle property (`graph.is_msf`).
"""
import sys

import pytest

from sdglab import decomposition, graph, hamiltonian
from sdglab.decomposition import Prepared, lightness_trace
from sdglab.disk import build_sdg
from sdglab.graph import WeightedGraph, kruskal_msf
from sdglab.hamiltonian import solves_exactly
from sdglab.sweep import build_instance, euclidean_kinds, evaluate_instance, spec_grid

KINDS = euclidean_kinds((1, 2), (1.0, 2.0)) + [("matrix", "mat", None, None)]
SPECS = [s for s in spec_grid(31, 1, (5, 9, 17, 30), KINDS, modes=("uniform", "biased")) if s.n > 4]


@pytest.fixture
def counts(monkeypatch):
    """Per-name lists of the size of each call: the matrix side for
    dense_msf, the point count for the others."""
    seen = {name: [] for name in ("dense_msf", "kruskal_msf", "decompose", "approx_ham_path", "exact_min_ham_path")}

    def counting(name, fn, size):
        def wrapper(*args, **kwargs):
            seen[name].append(size(args))
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {
        graph.dense_msf: counting("dense_msf", graph.dense_msf, lambda a: a[0].shape[0]),
        graph.kruskal_msf: counting("kruskal_msf", graph.kruskal_msf, lambda a: a[0].n),
        decomposition.decompose: counting("decompose", decomposition.decompose, lambda a: a[0].space.n),
        hamiltonian.approx_ham_path: counting("approx_ham_path", hamiltonian.approx_ham_path, lambda a: a[0].n),
        hamiltonian.exact_min_ham_path: counting(
            "exact_min_ham_path", hamiltonian.exact_min_ham_path, lambda a: a[0].n
        ),
    }
    for name, module in list(sys.modules.items()):
        if name == "sdglab" or name.startswith("sdglab."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[value])
    return seen


@pytest.mark.parametrize("ham_mode", ["approx", "auto"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.id)
def test_evaluation_computes_each_object_once(spec, ham_mode, counts):
    record = evaluate_instance(spec, ham_mode)
    seen = {name: list(calls) for name, calls in counts.items()}
    bundle = build_instance(spec)
    trace = lightness_trace(Prepared(bundle.space, bundle.ranges, ham_mode))
    m, r = bundle.space, bundle.ranges
    # The disk graph's MSF is the MST exactly when the radii keep every MST edge.
    full = 1 + (kruskal_msf(build_sdg(m, r)) != kruskal_msf(WeightedGraph(m.matrix)))
    survivors = [len(rd.labels) - len(rd.certificate.isolated) for rd in trace.rounds]

    assert record.trace_rounds == trace.round_count >= 1
    if spec.range_mode == "biased":
        assert full == 1
    assert seen["dense_msf"].count(spec.n) == full
    assert sorted(seen["dense_msf"]) == sorted([spec.n] * full + [k for k in survivors if k > 0])
    assert seen["kruskal_msf"] == []
    assert len(seen["decompose"]) == record.trace_rounds
    assert seen["decompose"].count(spec.n) == 1
    exact = solves_exactly(ham_mode, spec.n)
    assert seen["approx_ham_path"] == ([] if exact else [spec.n])
    assert seen["exact_min_ham_path"] == ([spec.n] if exact else [])
