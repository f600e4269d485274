"""Benchmark of sdglab: run one workload and print every metric with its unit.

    python3 bench/run.py --workload sweep-std --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

--trace 0 measures the end-to-end metrics in one fresh process. --trace 1 runs
the workload's fixed traced rounds in fresh processes: untraced and serial,
untraced through the pool (sweep-std only), then traced and serial; it reports
the per-layer metrics and checks that traced rows equal untraced rows.
--workload all runs every workload in both modes. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. Times are
scaled to a reference CPU speed sampled during the run (bench/speed.py); the
unscaled figures are printed beside them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-std", "large-n512", "exact-auto")
DEADLINE_S = 175.0  # one workload in one mode must exit within 180 s
# Rounds of the traced run; fixed, so that calls and work counts repeat.
TRACE_ROUNDS = {"sweep-std": 1, "large-n512": 1, "exact-auto": 3}

END_TO_END_UNITS = {"setup_s": "s", "instances_per_s": "1/s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_efficiency"):
        return "ratio"
    return "count"


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run_phase(workload: str, seed: int, extra: list[str], deadline: float) -> dict:
    """Run bench/phase.py in a fresh process group and return its JSON result."""
    cmd = [sys.executable, str(HERE / "phase.py"), "--workload", workload, "--seed", str(seed), *extra]
    env = {k: v for k, v in os.environ.items() if k != "SDGLAB_THREADS"}  # workers are fixed
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"phase {' '.join(extra)} of {workload} ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"phase {' '.join(extra)} of {workload} exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    phase = run_phase(workload, seed, ["--seconds", str(seconds)], deadline)
    attempted = sum(phase["instances"])
    failed = len(phase["failed"])
    # Times are scaled to the speed sampler's reference CPU speed (bench/speed.py),
    # so that the VM's speed phases, which last seconds, do not decide the figure.
    metrics = {
        "setup_s": statistics.median(phase["setup_s"]),
        "instances_per_s": rate(phase["instances"], phase["eval_s"]),
        "peak_rss_mb": phase["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    return phase, {"attempted": attempted, "failed": failed, "metrics": metrics}


def rate(instances: list[int], eval_s: list[float | None]) -> float:
    """Instances per second of evaluation over the rounds that were timed."""
    timed = [(n, e) for n, e in zip(instances, eval_s) if e]  # None: the round was redone
    return sum(n for n, _ in timed) / sum(e for _, e in timed) if timed else 0.0


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    rounds = ["--rounds", str(TRACE_ROUNDS[workload])]
    serial = run_phase(workload, seed, rounds + ["--serial"], deadline)
    phases = [serial]
    efficiency = 0.0  # no pool on this workload
    if serial["pool_workers"]:
        pooled = run_phase(workload, seed, rounds, deadline)
        pooled_s = sum(e for e in pooled["eval_s"] if e)  # None: a round had to be redone
        if pooled_s:
            efficiency = sum(e for e in serial["eval_s"] if e) / (serial["pool_workers"] * pooled_s)
        phases.append(pooled)
    traced = run_phase(workload, seed, rounds + ["--serial", "--traced"], deadline)
    phases.append(traced)
    failed = set().union(*(p["failed"] for p in phases))
    for p in phases[1:]:
        for i, (a, b) in enumerate(zip(serial["rows"], p["rows"])):
            if a != b:
                failed.add(i)
                traced["failures"].append(f"row {i} differs between phases: {a!r} != {b!r}")
    metrics = dict(traced["trace"])
    metrics["sweep.run_sweep.parallel_efficiency"] = efficiency
    # Wall times: the traced phase runs without the sampler, so the serial
    # phase's probe time is taken out of its wall time.
    metrics["trace.overhead_frac"] = traced["wall_s"] / (serial["wall_s"] - serial["probe_total_s"]) - 1.0
    return traced, {"attempted": len(serial["rows"]), "failed": len(failed), "metrics": metrics}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        phase, result = per_layer(workload, seed, deadline)
    else:
        phase, result = end_to_end(workload, seed, seconds, deadline)
    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={phase['numpy']} commit={commit()}"
    )
    print(f"workload: {workload} seed={seed} seconds={seconds:g} trace={trace}")
    if trace:
        for name in phase["skipped"]:
            print(f"skipped: {name} (not defined, or its count no longer applies)")
        print(f"spans: {phase['spans_file']}")
    else:
        print(f"rounds: {len(phase['instances'])}, golden-checked rounds: {phase['golden_rounds']}")
        print(
            f"unscaled: setup_s = {statistics.median(phase['setup_wall_s']):.6g} s, "
            f"instances_per_s = {rate(phase['instances'], phase['eval_wall_s']):.6g} 1/s; "
            f"{phase['probes']} speed probes, mean speed {phase['mean_speed']:.4g}"
        )
    for message in phase["failures"]:
        print(f"FAILED {message}")
    metrics = {}
    for name, value in result["metrics"].items():
        unit = END_TO_END_UNITS.get(name) if not trace else layer_unit(name)
        print(f"  {name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
        return
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            results[f"{workload}/trace{trace}"] = run(workload, args.seed, args.seconds, trace)
    print(json.dumps(results))


if __name__ == "__main__":
    main()
