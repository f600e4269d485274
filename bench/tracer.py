"""Span tracer installed from outside the program.

It rebinds every `sdglab` module's binding of each listed function (modules
import by name, e.g. `from .graph import kruskal_msf`, so patching the defining
module alone would miss most calls) and records one span per call: name,
start, end and the index of the enclosing traced span. Spans stay in memory and
are written out once, at the end. A listed name that its module no longer
defines is reported as skipped, not as an error.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

PACKAGE = "sdglab"

TARGETS = (
    "metric.validate_metric",
    "metric.Metric.euclidean",
    "metric.Metric.from_matrix",
    "metric.Metric.induce",
    "instances.gen_random_euclidean",
    "instances.gen_random_matrix_metric",
    "instances.gen_random_ranges",
    "graph.complete_graph",
    "graph.kruskal_msf",
    "disk.build_sdg",
    "hamiltonian.exact_min_ham_path",
    "hamiltonian.approx_ham_path",
    "hamiltonian.shortcut_path",
    "decomposition.decompose",
    "decomposition.verify_certificate",
    "decomposition.lightness_trace",
    "assignment.bounded_assignment",
    "sweep.evaluate_instance",
    "sweep.build_instance",
)

# Work counts taken at the same boundaries: target -> (counter, f(args, result)).
WORK_COUNTS = {
    "metric.validate_metric": ("triples", lambda args, result: len(args[0]) ** 3),
    "graph.complete_graph": ("edges", lambda args, result: len(result.edges)),
    "graph.kruskal_msf": ("edges_scanned", lambda args, result: len(args[0].edges)),
    "disk.build_sdg": ("edges_kept", lambda args, result: len(result.edges)),
    "hamiltonian.exact_min_ham_path": ("states", lambda args, result: (1 << result.n) * result.n),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [target index, start, end, parent span index or -1]
        self.work = {f"{t}.{c}": 0 for t, (c, _) in WORK_COUNTS.items()}
        self.skipped: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, index: int, fn):
        name = TARGETS[index]
        counter = WORK_COUNTS.get(name)
        key = f"{name}.{counter[0]}" if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.spans)
            self.spans.append([index, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span][1:3] = start, end
            if counter:
                try:
                    self.work[key] += counter[1](args, result)
                except (AttributeError, TypeError, IndexError):
                    self.skipped.add(key)  # the layer changed shape; count nothing
            return result

        return traced

    def install(self) -> None:
        found = []
        for index, target in enumerate(TARGETS):
            module_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                found.append((index, owner, path[-1], vars(owner)[path[-1]]))
            except (ImportError, AttributeError, KeyError):
                self.skipped.add(target)
        # Listed after the imports above, so every module that binds a target is seen.
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for index, owner, name, raw in found:
            if isinstance(owner, type):
                # A method: rebind it on its class, keeping static/class wrapping.
                kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                traced = self._wrap(index, raw.__func__ if kind else raw)
                setattr(owner, name, kind(traced) if kind else traced)
                continue
            traced = self._wrap(index, raw)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, attr, traced)

    def summary(self) -> dict[str, float]:
        """calls, total_s and self_s per target, plus the work counts. Self time is
        a span's duration minus the durations of its direct child spans."""
        calls = [0] * len(TARGETS)
        total = [0.0] * len(TARGETS)
        child = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            calls[index] += 1
            total[index] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = [0.0] * len(TARGETS)
        for span, (index, start, end, _) in enumerate(self.spans):
            own[index] += end - start - child[span]
        out: dict[str, float] = {}
        for index, target in enumerate(TARGETS):
            out[f"{target}.calls"] = calls[index]
            out[f"{target}.self_s"] = own[index]
            out[f"{target}.total_s"] = total[index]
        out.update(self.work)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {"names": list(TARGETS), "fields": ["name", "start", "end", "parent"], "spans": self.spans}
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
