"""Experiment sweeps: seeded instance grids, per-instance records, CSV/SVG output.

Sweeps are deterministic: per-instance seeds derive from the base seed through
`instances.mix_seed`, workers evaluate pure functions, and records are sorted
by instance id before emission, so the CSV bytes do not depend on the worker
count. The SDGLAB_THREADS environment variable caps the worker pool.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .assignment import bounded_assignment
from .decomposition import (
    decompose,
    graph_weight_coefficient,
    lightness_bound,
    lightness_trace,
    log_rounds_bound,
    verify_certificate,
    weight_coefficient,
)
from .disk import build_sdg_graph, sdg_msf
from .graph import kruskal_msf, metric_mst
from .hamiltonian import exact_min_ham_path, ham_path
from .instances import (
    InstanceBundle,
    gen_c3,
    gen_chain_metric,
    gen_line_graph,
    gen_random_euclidean,
    gen_random_matrix_metric,
    gen_random_ranges,
    gen_star_metric,
    mix_seed,
)

CSV_HEADER = (
    "id,seed,n,family,connected,w_mst,w_msf_sdg,coefficient,bound_2log,"
    "ham_mode,w_ham,trace_rounds,max_round_bound,cert_ok,assign_cost,assign_lower_bound"
)

SWEEP_DIMS = (1, 2, 3, 5)
SWEEP_PS = (1.0, 2.0, math.inf)
SWEEP_NS = (5, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128)


@dataclass(frozen=True)
class InstanceSpec:
    """Everything needed to rebuild one instance deterministically."""

    id: str
    family: str
    n: int
    seed: int
    range_mode: str | None = None
    d: int | None = None
    p: float | None = None
    w: float | None = None
    eps: float | None = None


@dataclass(frozen=True)
class ExperimentRecord:
    id: str
    seed: int
    n: int
    family: str
    connected: bool
    w_mst: float
    w_msf_sdg: float
    coefficient: float
    bound_2log: float
    ham_mode: str
    w_ham: float | None
    trace_rounds: int | None
    max_round_bound: int
    cert_ok: bool
    assign_cost: float | None
    assign_lower_bound: float | None

    @property
    def is_metric(self) -> bool:
        return self.family not in ("c3", "line")

    def within_bound(self) -> bool:
        return not self.is_metric or self.coefficient <= self.bound_2log


def build_instance(spec: InstanceSpec) -> InstanceBundle:
    if spec.family == "star":
        return gen_star_metric(spec.n)
    if spec.family == "chain":
        return gen_chain_metric(spec.n)
    if spec.family == "c3":
        return gen_c3(spec.w if spec.w is not None else 1000.0)
    if spec.family == "line":
        return gen_line_graph(spec.n, spec.w, spec.eps)
    if spec.family == "euclidean":
        metric = gen_random_euclidean(spec.n, spec.d or 2, spec.p or 2.0, spec.seed)
    elif spec.family == "matrix":
        metric = gen_random_matrix_metric(spec.n, spec.seed)
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    mode = spec.range_mode or "uniform"
    ranges = gen_random_ranges(metric, mode, mix_seed(spec.seed, 1))
    return InstanceBundle(family=spec.family, metric=metric, ranges=ranges, seed=spec.seed)


def evaluate_instance(spec: InstanceSpec, ham_mode: str = "approx") -> ExperimentRecord:
    """Compute one record: weights, coefficient, certificate, trace, assignment."""
    bundle = build_instance(spec)
    n = bundle.n
    bound = lightness_bound(n)
    if bundle.metric is not None:
        m, r = bundle.metric, bundle.ranges
        msf = sdg_msf(m, r)
        mst = metric_mst(m)
        h = ham_path(m, mode=ham_mode)
        cert = decompose(m, r, msf, h)
        cert_ok = not verify_certificate(m, r, msf, h, cert)
        trace = lightness_trace(m, r, ham_mode=ham_mode)
        report = bounded_assignment(m, r)
        return ExperimentRecord(
            id=spec.id,
            seed=spec.seed,
            n=n,
            family=spec.family,
            connected=msf.connected,
            w_mst=mst.weight,
            w_msf_sdg=msf.weight,
            coefficient=msf.weight / mst.weight,
            bound_2log=bound,
            ham_mode=ham_mode,
            w_ham=h.weight,
            trace_rounds=trace.round_count,
            max_round_bound=log_rounds_bound(n),
            cert_ok=cert_ok,
            assign_cost=report.cost,
            assign_lower_bound=report.lower_bound,
        )
    g, r = bundle.graph, bundle.ranges
    msf_sdg = kruskal_msf(build_sdg_graph(g, r))
    msf_g = kruskal_msf(g)
    h = exact_min_ham_path(g) if n <= 18 else None
    cert_ok = True
    if h is not None:
        cert = decompose(g, r, msf_sdg, h)
        cert_ok = not verify_certificate(g, r, msf_sdg, h, cert)
    return ExperimentRecord(
        id=spec.id,
        seed=spec.seed,
        n=n,
        family=spec.family,
        connected=msf_sdg.connected,
        w_mst=msf_g.weight,
        w_msf_sdg=msf_sdg.weight,
        coefficient=msf_sdg.weight / msf_g.weight,
        bound_2log=bound,
        ham_mode="exact" if h is not None else "none",
        w_ham=h.weight if h is not None else None,
        trace_rounds=None,
        max_round_bound=log_rounds_bound(n),
        cert_ok=cert_ok,
        assign_cost=None,
        assign_lower_bound=None,
    )


def standard_suite(base_seed: int, trials: int = 4) -> list[InstanceSpec]:
    """The mixed random-metric grid: every (d, p) pair plus matrix metrics,
    crossed with the n ladder and both range modes. trials=4 gives 1144 specs."""
    specs: list[InstanceSpec] = []
    index = 0
    kinds: list[tuple[str, int | None, float | None]] = [
        ("euclidean", d, p) for d in SWEEP_DIMS for p in SWEEP_PS
    ]
    kinds.append(("matrix", None, None))
    for trial in range(trials):
        for n in SWEEP_NS:
            for family, d, p in kinds:
                for mode in ("uniform", "biased"):
                    seed = mix_seed(base_seed, index)
                    tag = f"d{d}p{_p_label(p)}" if family == "euclidean" else "mat"
                    specs.append(
                        InstanceSpec(
                            id=f"{family}-{tag}-n{n:03d}-{mode}-t{trial}",
                            family=family,
                            n=n,
                            seed=seed,
                            range_mode=mode,
                            d=d,
                            p=p,
                        )
                    )
                    index += 1
    return specs


def _p_label(p: float | None) -> str:
    if p is None:
        return "-"
    return "inf" if math.isinf(p) else f"{p:g}"


def max_workers(requested: int | None = None) -> int:
    cap = os.environ.get("SDGLAB_THREADS")
    workers = requested or os.cpu_count() or 1
    if cap:
        workers = min(workers, max(1, int(cap)))
    return max(1, workers)


def run_sweep(
    specs: list[InstanceSpec], ham_mode: str = "approx", workers: int | None = None
) -> list[ExperimentRecord]:
    """Evaluate all specs (optionally across processes) and sort by id."""
    nworkers = max_workers(workers)
    if nworkers <= 1 or len(specs) < 2:
        records = [evaluate_instance(s, ham_mode) for s in specs]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            records = list(pool.map(evaluate_instance, specs, [ham_mode] * len(specs), chunksize=8))
    return sorted(records, key=lambda rec: rec.id)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def record_to_row(rec: ExperimentRecord) -> str:
    return ",".join(
        _fmt(v)
        for v in (
            rec.id,
            rec.seed,
            rec.n,
            rec.family,
            rec.connected,
            rec.w_mst,
            rec.w_msf_sdg,
            rec.coefficient,
            rec.bound_2log,
            rec.ham_mode,
            rec.w_ham,
            rec.trace_rounds,
            rec.max_round_bound,
            rec.cert_ok,
            rec.assign_cost,
            rec.assign_lower_bound,
        )
    )


def emit_csv(records: list[ExperimentRecord], path) -> None:
    lines = [CSV_HEADER] + [record_to_row(r) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def parse_csv(path) -> list[ExperimentRecord]:
    text = Path(path).read_text().splitlines()
    if not text or text[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    records = []
    for line in text[1:]:
        if not line:
            continue
        f = line.split(",")
        records.append(
            ExperimentRecord(
                id=f[0],
                seed=int(f[1]),
                n=int(f[2]),
                family=f[3],
                connected=f[4] == "true",
                w_mst=float(f[5]),
                w_msf_sdg=float(f[6]),
                coefficient=float(f[7]),
                bound_2log=float(f[8]),
                ham_mode=f[9],
                w_ham=float(f[10]) if f[10] else None,
                trace_rounds=int(f[11]) if f[11] else None,
                max_round_bound=int(f[12]),
                cert_ok=f[13] == "true",
                assign_cost=float(f[14]) if f[14] else None,
                assign_lower_bound=float(f[15]) if f[15] else None,
            )
        )
    return records


def emit_summary(records: list[ExperimentRecord]) -> str:
    """Text table: maximum coefficient per n and per family."""
    by_n: dict[int, float] = {}
    by_family: dict[str, float] = {}
    for rec in records:
        by_n[rec.n] = max(by_n.get(rec.n, 0.0), rec.coefficient)
        by_family[rec.family] = max(by_family.get(rec.family, 0.0), rec.coefficient)
    lines = [f"instances: {len(records)}"]
    lines.append("max coefficient by n:")
    for n in sorted(by_n):
        lines.append(f"  n={n:<5d} max={by_n[n]:.6f}  bound={lightness_bound(n):.6f}")
    lines.append("max coefficient by family:")
    for fam in sorted(by_family):
        lines.append(f"  {fam:<12s} max={by_family[fam]:.6f}")
    violations = [r for r in records if not r.within_bound()]
    lines.append(f"bound violations: {len(violations)}")
    for rec in violations:
        lines.append(f"  VIOLATION id={rec.id} seed={rec.seed}")
    return "\n".join(lines)


def emit_svg(records: list[ExperimentRecord], path) -> None:
    """Standalone SVG line chart: max coefficient and its bound vs log_{5/4} n."""
    by_n: dict[int, float] = {}
    for rec in records:
        if rec.is_metric:
            by_n[rec.n] = max(by_n.get(rec.n, 0.0), rec.coefficient)
    ns = sorted(by_n)
    if not ns:
        Path(path).write_text('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400"/>\n')
        return
    xs = [math.log(n) / math.log(1.25) for n in ns]
    coef = [by_n[n] for n in ns]
    bounds = [lightness_bound(n) for n in ns]
    width, height, margin = 640, 400, 50
    xmax = max(xs)
    ymax = max(bounds + coef) * 1.05

    def sx(x: float) -> float:
        return margin + (width - 2 * margin) * x / xmax

    def sy(y: float) -> float:
        return height - margin - (height - 2 * margin) * y / ymax

    def polyline(ys, color):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        polyline(coef, "#1f77b4"),
        polyline(bounds, "#d62728"),
        f'<text x="{width - margin}" y="{height - margin + 30}" text-anchor="end" '
        'font-size="12">log base 5/4 of n</text>',
        f'<text x="{margin}" y="{margin - 10}" font-size="12">'
        "max weight coefficient (blue) vs 2*log bound (red)</text>",
    ]
    for x, n in zip(xs, ns):
        parts.append(
            f'<text x="{sx(x):.2f}" y="{height - margin + 15}" text-anchor="middle" '
            f'font-size="10">{n}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
