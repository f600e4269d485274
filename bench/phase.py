"""One benchmark phase in a fresh process; prints one JSON object on stdout.

    python3 bench/phase.py --workload NAME --seed N --seconds S
    python3 bench/phase.py --workload NAME --seed N --rounds R [--serial] [--traced]
    python3 bench/phase.py --workload NAME --write-golden R

--seconds starts rounds until S seconds have passed (at least one round);
--rounds runs exactly R rounds, so call and work counts repeat. Each set-up
sample and each round's evaluation is reported both as wall time and scaled to
the CPU speed sampler's reference speed (bench/speed.py). The sampler is off in
a traced phase, so that no probe time enters its spans, and there scaled times
equal wall times; --serial
makes sweep-std call run_sweep with one worker; --traced installs the span
tracer first and writes its spans to .bench_out/.
--write-golden pins the rows of the first R rounds at the default seed.
"""
from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    check_golden,
    golden_path,
    load_golden,
    run_round,
)

SPANS_DIR = ROOT / ".bench_out"
MAX_MESSAGES = 10


def run_phase(args) -> dict:
    w = WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    golden = load_golden(w.name) if args.seed == DEFAULT_SEED else []
    out = {"instances": [], "failed": [], "failures": [], "rows": []}
    setup, evals = [], []
    sampler = SpeedSampler(spread_cpus=w.pool_workers > 0 and not args.serial)
    start = time.perf_counter()
    deadline = start + args.seconds if args.seconds else None
    if not args.traced:
        sampler.start()
    k = offset = 0
    while (k == 0 or time.perf_counter() < deadline) if deadline else k < args.rounds:
        result = run_round(w, args.seed, k, args.serial)
        if k < len(golden):
            check_golden(result.rows, golden[k], result.failures)
        setup.extend(result.setup)
        evals.append(result.evals)
        out["instances"].append(len(result.specs))
        out["failed"].extend(offset + i for i in sorted(result.failures))
        out["failures"].extend(result.failures[i] for i in sorted(result.failures))
        if deadline is None:
            out["rows"].extend(result.rows)
        offset += len(result.specs)
        k += 1
    out["wall_s"] = time.perf_counter() - start
    sampler.stop()
    out["setup_s"] = [sampler.scaled(ivs) for ivs in setup]
    out["eval_s"] = [None if ivs is None else sampler.scaled(ivs) for ivs in evals]
    out["setup_wall_s"] = [sum(t1 - t0 for t0, t1 in ivs) for ivs in setup]
    out["eval_wall_s"] = [None if ivs is None else sum(t1 - t0 for t0, t1 in ivs) for ivs in evals]
    out["probes"] = len(sampler.times)
    out["probe_total_s"] = sum(sampler.probe_s)
    out["mean_speed"] = statistics.fmean(sampler.speeds) if sampler.speeds else 1.0
    out["failures"] = out["failures"][:MAX_MESSAGES]
    out["golden_rounds"] = min(k, len(golden))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest pool worker
    out["peak_rss_mb"] = (self_kb + children_kb) / 1024.0
    out["numpy"] = numpy.__version__
    out["pool_workers"] = w.pool_workers
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["skipped"] = sorted(tracer.skipped)
        spans = SPANS_DIR / f"spans-{w.name}-seed{args.seed}.json"
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
    return out


def write_golden(name: str, rounds: int) -> None:
    w = WORKLOADS[name]
    pinned = []
    for k in range(rounds):
        result = run_round(w, DEFAULT_SEED, k)
        if result.failures:
            raise SystemExit(f"round {k} failed, nothing written: {result.failures}")
        pinned.append(result.rows)
    with gzip.open(golden_path(name), "wt") as fh:
        json.dump({"seed": DEFAULT_SEED, "rounds": pinned}, fh, indent=0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--write-golden", type=int, metavar="R")
    parser.add_argument("--serial", action="store_true", help="run_sweep with one worker")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    if args.write_golden:
        write_golden(args.workload, args.write_golden)
        return
    print(json.dumps(run_phase(args)))


if __name__ == "__main__":
    main()
