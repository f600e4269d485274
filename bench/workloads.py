"""Benchmark workloads: seeded instance rounds, their evaluation, and the output check.

Every input is derived from the seed argument through `mix_seed` and
`standard_suite`, so the same seed gives the same instances. A workload runs in
rounds; round k of a workload always holds the same specs for a given seed, and
the rounds of one workload all have the same shape, so their rates compare.

  sweep-std   round k = standard_suite(mix_seed(seed, k), trials=1): 286 instances,
              n from 5 to 128, 13 metric kinds, both range modes, evaluated by
              run_sweep(..., "approx", workers=2). The only pool workload.
  large-n512  round k = three n=512 instances (Euclidean d=2 p=2 uniform ranges,
              Euclidean d=2 p=inf biased ranges, matrix metric biased ranges),
              each evaluated serially by evaluate_instance(..., "approx").
  exact-auto  round k = one metric kind at n = 12, 14, 16, evaluated serially by
              evaluate_instance(..., "auto"), so the exact Held-Karp DP runs.
              Kinds cycle through star and chain (unit radii, all ties), the
              matrix metric and the 12 Euclidean (d, p) kinds; range modes
              alternate between rounds.
"""
from __future__ import annotations

import gzip
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sdglab import sweep
from sdglab.instances import mix_seed
from sdglab.sweep import InstanceSpec

DEFAULT_SEED = 1  # the seed whose rows are pinned in golden/; seed 2 is the unseen one

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

INF = math.inf
LARGE_KINDS = (
    ("euclidean", 2, 2.0, "uniform"),
    ("euclidean", 2, INF, "biased"),
    ("matrix", None, None, "biased"),
)
# Tie-heavy kinds first, so that every run reaches them.
EXACT_KINDS = (
    ("star", None, None),
    ("chain", None, None),
    ("matrix", None, None),
    ("euclidean", 2, 2.0),
    ("euclidean", 2, INF),
    ("euclidean", 1, 1.0),
    ("euclidean", 3, 1.0),
    ("euclidean", 5, 2.0),
    ("euclidean", 2, 1.0),
    ("euclidean", 1, 2.0),
    ("euclidean", 3, INF),
    ("euclidean", 5, 1.0),
    ("euclidean", 1, INF),
    ("euclidean", 3, 2.0),
    ("euclidean", 5, INF),
)
EXACT_NS = (12, 14, 16)


def _tag(family: str, d: int | None, p: float | None) -> str:
    if family != "euclidean":
        return family
    return f"d{d}p{'inf' if math.isinf(p) else f'{p:g}'}"


def sweep_std_round(seed: int, k: int) -> list[InstanceSpec]:
    return sweep.standard_suite(mix_seed(seed, k), trials=1)


def large_round(seed: int, k: int) -> list[InstanceSpec]:
    return [
        InstanceSpec(
            id=f"{_tag(family, d, p)}-n512-{mode}-r{k}",
            family=family,
            n=512,
            seed=mix_seed(seed, 3 * k + j),
            range_mode=mode,
            d=d,
            p=p,
        )
        for j, (family, d, p, mode) in enumerate(LARGE_KINDS)
    ]


def exact_round(seed: int, k: int) -> list[InstanceSpec]:
    family, d, p = EXACT_KINDS[k % len(EXACT_KINDS)]
    mode = ("uniform", "biased")[k % 2]
    return [
        InstanceSpec(
            id=f"{_tag(family, d, p)}-n{n:03d}-{mode}-r{k}",
            family=family,
            n=n,
            seed=mix_seed(seed, 3 * k + j),
            range_mode=mode,
            d=d,
            p=p,
        )
        for j, n in enumerate(EXACT_NS)
    ]


def exact_setup(seed: int, k: int) -> list[InstanceSpec]:
    """Rounds k .. k+14: every exact-auto kind once, each at all three sizes.
    A round's own three builds take about a millisecond, too little to time."""
    return [spec for j in range(len(EXACT_KINDS)) for spec in exact_round(seed, k + j)]


@dataclass(frozen=True)
class Workload:
    name: str
    round_specs: Callable[[int, int], list[InstanceSpec]]
    ham_mode: str
    pool_workers: int  # > 0: evaluate through run_sweep with this many workers
    # Set-up timed apart from evaluation, several times per round; None: each
    # round's own builds are timed, once per instance.
    setup_specs: Callable[[int, int], list[InstanceSpec]] | None = None
    setup_repeats: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-std", sweep_std_round, "approx", pool_workers=2),
        Workload("large-n512", large_round, "approx", pool_workers=0),
        Workload("exact-auto", exact_round, "auto", pool_workers=0, setup_specs=exact_setup, setup_repeats=5),
    )
}


Interval = tuple[float, float]  # perf_counter at start and end


@dataclass
class RoundResult:
    specs: list[InstanceSpec]
    setup: list[list[Interval]]  # the timed intervals of each set-up sample
    evals: list[Interval] | None  # timed evaluation intervals; None if the round had to be redone
    rows: list[str | None]  # one per spec, in emission order; None where evaluation raised
    failures: dict[int, str]  # row index -> why that instance failed


def _timed_build(specs: list[InstanceSpec]) -> Interval:
    start = time.perf_counter()
    for spec in specs:
        try:
            sweep.build_instance(spec)
        except Exception:  # evaluate_instance rebuilds the spec and reports the failure
            pass
    return start, time.perf_counter()


def _evaluate(spec: InstanceSpec, ham_mode: str):
    try:
        return sweep.evaluate_instance(spec, ham_mode), None
    except Exception as exc:  # a failing instance is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_round(w: Workload, seed: int, k: int, serial: bool = False) -> RoundResult:
    """Build and evaluate round k. Sweep rounds build every spec in this process
    first, then call run_sweep (with one worker if `serial`); serial workloads
    time each build just before its evaluation."""
    specs = w.round_specs(seed, k)
    setup = []
    if w.setup_specs:
        batch = w.setup_specs(seed, k)
        setup = [[_timed_build(batch)] for _ in range(w.setup_repeats)]
    outcomes = []  # (record or None, error or None), in emission order
    if w.pool_workers:
        workers = 1 if serial else w.pool_workers
        if not w.setup_specs:
            setup.append([_timed_build(specs)])
        specs = sorted(specs, key=lambda s: s.id)  # run_sweep emits records by id
        start = time.perf_counter()
        try:
            outcomes = [(rec, None) for rec in sweep.run_sweep(specs, w.ham_mode, workers=workers)]
            evals = [(start, time.perf_counter())]
        except Exception:
            # run_sweep stops at the first raising instance; find each one.
            outcomes = [_evaluate(spec, w.ham_mode) for spec in specs]
            evals = None
    else:
        evals, built = [], []
        for spec in specs:
            if not w.setup_specs:
                built.append(_timed_build([spec]))
            start = time.perf_counter()
            outcomes.append(_evaluate(spec, w.ham_mode))
            evals.append((start, time.perf_counter()))
        if not w.setup_specs:
            setup.append(built)
    rows: list[str | None] = []
    failures: dict[int, str] = {}
    if len(outcomes) != len(specs):
        error = f"run_sweep returned {len(outcomes)} records for {len(specs)} instances"
        outcomes = [(None, error)] * len(specs)
    for i, (spec, (rec, error)) in enumerate(zip(specs, outcomes)):
        rows.append(None if rec is None else sweep.record_to_row(rec))
        if rec is not None and rec.id != spec.id:
            error = f"record is for {rec.id}"
        elif rec is not None:
            error = check_record(rec)
        if error:
            failures[i] = f"{spec.id}: {error}"
    return RoundResult(specs=specs, setup=setup, evals=evals, rows=rows, failures=failures)


def check_record(rec) -> str | None:
    """The seed-independent output check of one experiment record."""
    if not rec.cert_ok:
        return "certificate failed verification"
    if not rec.within_bound():
        return f"coefficient {rec.coefficient!r} exceeds its bound {rec.bound_2log!r}"
    if rec.trace_rounds is not None and rec.trace_rounds > rec.max_round_bound:
        return f"trace took {rec.trace_rounds} rounds, bound {rec.max_round_bound}"
    return None


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json.gz"


def load_golden(name: str) -> list[list[str]]:
    """Expected rows per round at DEFAULT_SEED, as produced by the seed commit."""
    with gzip.open(golden_path(name), "rt") as fh:
        data = json.load(fh)
    if data["seed"] != DEFAULT_SEED:
        raise ValueError(f"golden rows for {name} were made at seed {data['seed']}")
    return data["rounds"]


def check_golden(rows: list[str | None], expected: list[str], failures: dict[int, str]) -> None:
    """Mark every row that differs from its pinned row at DEFAULT_SEED."""
    for i, got in enumerate(rows):
        want = expected[i] if i < len(expected) else None
        if got != want and i not in failures:
            failures[i] = f"row {i} differs from the pinned row: {got!r} != {want!r}"
