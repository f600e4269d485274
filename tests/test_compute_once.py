"""One evaluation computes each derived object once.

Every `sdglab` module's binding of `dense_msf` and `decompose` is replaced by a
counting wrapper (modules import by name, so patching the defining module
alone would miss calls). An evaluation then runs Prim on the full n x n matrix
exactly three times: the disk-graph MSF, the metric MST and `decompose`'s MSF
guard for the first certificate. Biased ranges add none: their generator
reads the same `Metric.mst` that the evaluation does. It decomposes once per
peeling round, the first round reusing the evaluation's own certificate.
"""
import sys

import pytest

from sdglab import decomposition, graph
from sdglab.sweep import euclidean_kinds, evaluate_instance, spec_grid

KINDS = euclidean_kinds((1, 2), (1.0, 2.0)) + [("matrix", "mat", None, None)]
SPECS = [s for s in spec_grid(31, 1, (5, 9, 17, 30), KINDS, modes=("uniform", "biased")) if s.n > 4]


@pytest.fixture
def counts(monkeypatch):
    """Per-name lists of the argument of each call: the matrix side for
    dense_msf, the point count for decompose."""
    seen = {"dense_msf": [], "decompose": []}

    def counting(name, fn, size):
        def wrapper(*args, **kwargs):
            seen[name].append(size(args))
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {
        graph.dense_msf: counting("dense_msf", graph.dense_msf, lambda a: a[0].shape[0]),
        decomposition.decompose: counting("decompose", decomposition.decompose, lambda a: a[0].n),
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
    assert record.trace_rounds >= 1
    assert counts["dense_msf"].count(spec.n) == 3
    assert len(counts["decompose"]) == record.trace_rounds
    assert counts["decompose"].count(spec.n) == 1
