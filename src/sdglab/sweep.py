"""Experiment sweeps: seeded instance grids, per-instance records, CSV/SVG output.

Sweeps are deterministic: per-instance seeds derive from the base seed through
`instances.mix_seed`, workers evaluate pure functions, and records are sorted
by instance id before emission, so the CSV bytes do not depend on the worker
count. `run_sweep`'s `workers` (`sdglab sweep --workers`) sets the pool size,
capped by the number of 8-spec chunks.

The default experiment, the standard mixed-metric grid with four trials
(1144 instances), is one command:

    sdglab sweep --family standard --seed 20260810 --trials 4 --out sweep.csv

The worst coefficient's growth with n is one uniform-range sweep per metric
family; each prints the maximum per n beside its bound, and --svg charts both:

    sdglab sweep --family euclidean --dim 1,2,3 --p 1,2,inf --ranges uniform \
        --n 8,16,32,64,128,256 --trials 20 --svg growth-lp.svg
    sdglab sweep --family matrix --ranges uniform \
        --n 8,16,32,64,128,256 --trials 60 --svg growth-matrix.svg
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .assignment import bounded_assignment
from .decomposition import (
    Prepared,
    lightness_bound,
    lightness_trace,
    log_rounds_bound,
    verify_certificate,
)
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

SWEEP_DIMS = (1, 2, 3, 5)
SWEEP_PS = (1.0, 2.0, math.inf)
SWEEP_NS = (5, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128)
RANGE_MODES = ("uniform", "biased")
CHUNKSIZE = 8  # specs per pool task

# A grid kind: (family, id tag, d, p).
Kind = tuple[str, str, int | None, float | None]


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
    """One sweep CSV row: the fields, in this order, are its columns."""

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
    w_ham: float
    trace_rounds: int
    max_round_bound: int
    cert_ok: bool
    assign_cost: float
    assign_lower_bound: float

    def within_bound(self) -> bool:
        return self.coefficient <= self.bound_2log


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
        d = spec.d if spec.d is not None else 2
        p = spec.p if spec.p is not None else 2.0
        metric = gen_random_euclidean(spec.n, d, p, spec.seed)
    elif spec.family == "matrix":
        metric = gen_random_matrix_metric(spec.n, spec.seed)
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    mode = spec.range_mode or "uniform"
    ranges = gen_random_ranges(metric, mode, mix_seed(spec.seed, 1))
    return InstanceBundle(family=spec.family, space=metric, ranges=ranges, seed=spec.seed)


def evaluate_instance(spec: InstanceSpec, ham_mode: str = "approx") -> ExperimentRecord:
    """Compute one record: weights, coefficient, certificate, trace, assignment."""
    bundle = build_instance(spec)
    if not bundle.space.is_metric:
        raise ValueError(f"sweeps evaluate metric instances only, got family {spec.family!r}")
    m, r, n = bundle.space, bundle.ranges, bundle.n
    mst = m.mst  # first, so that the disk-graph MSF starts from it (`disk.sdg_msf`)
    p = Prepared(m, r, ham_mode)
    cert_ok = not verify_certificate(m, r, p.msf, p.path, p.certificate)
    trace = lightness_trace(p)
    report = bounded_assignment(p)
    return ExperimentRecord(
        id=spec.id,
        seed=spec.seed,
        n=n,
        family=spec.family,
        connected=p.msf.connected,
        w_mst=mst.weight,
        w_msf_sdg=p.msf.weight,
        coefficient=p.msf.weight / mst.weight,
        bound_2log=lightness_bound(n),
        ham_mode=ham_mode,
        w_ham=p.path.weight,
        trace_rounds=trace.round_count,
        max_round_bound=log_rounds_bound(n),
        cert_ok=cert_ok,
        assign_cost=report.cost,
        assign_lower_bound=report.lower_bound,
    )


def euclidean_kinds(dims, ps) -> list[Kind]:
    """One l_p grid kind per (d, p) pair, tagged dDpP."""
    return [("euclidean", f"d{d}p{p:g}", d, p) for d in dims for p in ps]


def spec_grid(
    base_seed: int, trials: int, ns, kinds: list[Kind], modes=RANGE_MODES
) -> list[InstanceSpec]:
    """Every (trial, n, kind, range mode), in that nesting order; the i-th spec
    gets seed mix_seed(base_seed, i) and the id family-tag-nNNN-mode-tTRIAL."""
    specs: list[InstanceSpec] = []
    for trial in range(trials):
        for n in ns:
            for family, tag, d, p in kinds:
                for mode in modes:
                    specs.append(
                        InstanceSpec(
                            id=f"{family}-{tag}-n{n:03d}-{mode}-t{trial}",
                            family=family,
                            n=n,
                            seed=mix_seed(base_seed, len(specs)),
                            range_mode=mode,
                            d=d,
                            p=p,
                        )
                    )
    return specs


def standard_suite(base_seed: int, trials: int = 4) -> list[InstanceSpec]:
    """The mixed random-metric grid: every (d, p) pair plus matrix metrics,
    crossed with the n ladder and both range modes. trials=4 gives 1144 specs."""
    kinds = euclidean_kinds(SWEEP_DIMS, SWEEP_PS) + [("matrix", "mat", None, None)]
    return spec_grid(base_seed, trials, SWEEP_NS, kinds)


def max_workers(requested: int | None, tasks: int) -> int:
    """Pool size for `tasks` specs: the requested count (None: the CPU
    count), capped by the number of CHUNKSIZE-spec chunks, since the pool
    forks every worker up front and a worker without a chunk would sit idle.
    Up to CHUNKSIZE specs therefore run serially. Raises ValueError for a
    requested count below 1."""
    if requested is not None and requested < 1:
        raise ValueError(f"workers must be at least 1, got {requested}")
    workers = requested or os.cpu_count() or 1
    return max(1, min(workers, math.ceil(tasks / CHUNKSIZE)))


def run_sweep(
    specs: list[InstanceSpec], ham_mode: str = "approx", workers: int | None = None
) -> list[ExperimentRecord]:
    """Evaluate all specs (optionally across processes) and sort by id."""
    nworkers = max_workers(workers, len(specs))
    if nworkers == 1:
        records = [evaluate_instance(s, ham_mode) for s in specs]
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            records = list(
                pool.map(evaluate_instance, specs, [ham_mode] * len(specs), chunksize=CHUNKSIZE)
            )
    return sorted(records, key=lambda rec: rec.id)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def record_to_row(rec: ExperimentRecord) -> str:
    return ",".join(_fmt(getattr(rec, name)) for name in _COLUMNS)


def emit_csv(records: list[ExperimentRecord], path) -> None:
    lines = [",".join(_COLUMNS)] + [record_to_row(r) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def max_coefficient_by(records: list[ExperimentRecord], key) -> dict:
    """Largest coefficient per key(record), e.g. per n or per family."""
    best: dict = {}
    for rec in records:
        best[key(rec)] = max(best.get(key(rec), 0.0), rec.coefficient)
    return best


def emit_summary(records: list[ExperimentRecord]) -> str:
    """Text table: maximum coefficient per n and per family, then the records
    over their bound and, if any, those whose certificate failed."""
    by_n = max_coefficient_by(records, lambda rec: rec.n)
    by_family = max_coefficient_by(records, lambda rec: rec.family)
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
    failed = [r for r in records if not r.cert_ok]
    if failed:
        lines.append(f"failed certificates: {len(failed)}")
        lines.extend(f"  FAILED id={rec.id} seed={rec.seed}" for rec in failed)
    return "\n".join(lines)


def emit_svg(by_n: dict[int, float], path) -> None:
    """Standalone SVG line chart: the maximum coefficient per n (as computed by
    `max_coefficient_by`) and its bound, against log_{5/4} n."""
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
