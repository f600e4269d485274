"""Alternate benchmark runs in a parent and a change checkout; write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py pairs PARENT CHANGE --out BENCH_14.json \\
        --workloads large-n512 --seeds 1 2 --pairs 10
    python3 scripts/bench_pairs.py trace PARENT CHANGE --out BENCH_14.json
    python3 scripts/bench_pairs.py snippet PARENT CHANGE --out BENCH_14.json \\
        --file timing.py --name "dense_msf (s)" --pairs 2

PARENT and CHANGE are two checkouts of this repository. Every run is a fresh
process in one of them, and the two sides alternate: pair i runs the parent
first when i is even and the change first when it is odd.

  pairs    `bench/run.py --trace 0` once per side per pair, for each workload
           and seed. For every end-to-end metric it records every value, the
           medians, the inclusive quartiles and the pairs the change won (ties
           count for neither), under "pairs" -> "<workload>/seed<S>".
  trace    `bench/run.py --trace 1` once per side for each workload, at the
           first seed; every per-layer metric goes under "trace".
  snippet  runs the Python file --file in each checkout, with that checkout's
           src/ on the path, once per side per pair. The file prints one JSON
           line; every run's output and the file's text go under
           "untraced" -> --name.

Each command merges its section into --out, so the commands above build one
file. Each side's "commit" is `git describe --always --dirty` of its checkout
("-dirty" marks uncommitted changes); --note is stored as "description". The
run length is bench/run.py's own. Nothing under bench/ is changed; the runs
leave their spans in each checkout's .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep-std", "large-n512", "exact-auto")
SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py run; its last output line is the result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def run_snippet(checkout: Path, path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, str(path)], cwd=checkout, env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def describe(checkout: Path) -> str:
    cmd = ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=40"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 else "not a git checkout"


def alternate(parent: Path, change: Path, pairs: int, run) -> list[dict]:
    """run(checkout) for each side in each pair, the first side alternating."""
    results = []
    for i in range(pairs):
        sides = (("parent", parent), ("change", change))
        if i % 2:
            sides = sides[::-1]
        results.append({name: run(path) for name, path in sides} | {"parent_first": i % 2 == 0})
    return results


def summary(parent: list[float], change: list[float], better: str) -> dict:
    """Values, medians, inclusive quartiles and the pairs won by the change."""
    def quartiles(values):
        if len(values) < 2:
            return [values[0], values[0]]
        q = statistics.quantiles(values, n=4, method="inclusive")
        return [q[0], q[2]]

    sign = 1 if better == "higher" else -1
    return {
        "parent": parent,
        "change": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": quartiles(parent),
        "change_iqr": quartiles(change),
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
    }


def cmd_pairs(args, doc: dict, save) -> None:
    better = {m["name"]: m["better"] for m in json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload, seed in ((w, s) for w in args.workloads for s in args.seeds):
        runs = alternate(args.parent, args.change, args.pairs, lambda path: run_bench(path, workload, seed, 0))
        entry = {
            "pairs": args.pairs,
            "parent_first": [r["parent_first"] for r in runs],
            "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in SIDES},
            "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
        }
        for name, direction in better.items():
            values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
            entry[name] = summary(values["parent"], values["change"], direction)
        doc.setdefault("pairs", {})[f"{workload}/seed{seed}"] = entry
        save()
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name} {entry[name]['parent_median']:.4g} -> {entry[name]['change_median']:.4g} "
            f"({entry[name]['change_wins']}/{args.pairs} won)" for name in better), flush=True)


def cmd_trace(args, doc: dict, save) -> None:
    for workload in args.workloads:
        runs = alternate(args.parent, args.change, 1, lambda path: run_bench(path, workload, args.seeds[0], 1))[0]
        doc.setdefault("trace", {})[f"{workload}/seed{args.seeds[0]}"] = {
            side: {name: m["value"] for name, m in runs[side]["metrics"].items()} | {"correct": runs[side]["correct"]}
            for side in SIDES
        }
        save()
        print(f"{workload}: traced", flush=True)


def cmd_snippet(args, doc: dict, save) -> None:
    if args.file is None or args.name is None:
        sys.exit("snippet needs --file and --name")
    path = args.file.resolve()
    runs = alternate(args.parent, args.change, args.pairs, lambda checkout: run_snippet(checkout, path))
    doc.setdefault("untraced", {})[args.name] = {
        "source": path.read_text(),
        "parent_first": [r["parent_first"] for r in runs],
    } | {side: [r[side] for r in runs] for side in SIDES}
    save()
    print(json.dumps({side: [r[side] for r in runs] for side in SIDES}), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("pairs", "trace", "snippet"))
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to create or merge into")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--file", type=Path, help="snippet: Python file that prints one JSON line")
    parser.add_argument("--name", help="snippet: key of its results under 'untraced'")
    parser.add_argument("--note", help="stored as the file's 'description'")
    args = parser.parse_args()
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc["command"] = "python3 bench/run.py --workload W --seed S --trace T"
    for side in SIDES:
        doc.setdefault(side, {})["commit"] = describe(getattr(args, side))
    if args.note is not None:
        doc["description"] = args.note

    def save():  # after every finished entry, so a stopped run keeps what it measured
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    {"pairs": cmd_pairs, "trace": cmd_trace, "snippet": cmd_snippet}[args.command](args, doc, save)


if __name__ == "__main__":
    main()
