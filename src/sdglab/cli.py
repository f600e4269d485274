"""Command-line front end.

Subcommands: gen, sdg, msf, decompose, trace, assign, sweep, verify.
Results are JSON on stdout (or --out); errors are machine-readable JSON on
stderr. Exit status 0 means every check passed, 1 a violated bound or failed
verification, 2 invalid input, including one too large for memory.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

from .assignment import bounded_assignment, cost_ratio_check
from .decomposition import (
    BoundViolationError,
    DecompositionCertificate,
    Prepared,
    lightness_trace,
    parse_vertices,
    verify_certificate,
    weight_coefficient,
)
from .disk import build_sdg
from .hamiltonian import HAM_MODES, HamPath
from .instances import (
    FAMILIES,
    InstanceBundle,
    InstanceFormatError,
    bundle_to_dict,
    read_instance,
    read_json,
    write_instance,
)
from .sweep import (
    RANGE_MODES,
    InstanceSpec,
    build_instance,
    emit_csv,
    emit_summary,
    emit_svg,
    euclidean_kinds,
    max_coefficient_by,
    run_sweep,
    spec_grid,
    standard_suite,
)


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _parse_p(text: str) -> float:
    return math.inf if text in ("inf", "Inf", "INF") else float(text)


def _cmd_gen(args) -> int:
    spec = InstanceSpec(
        id=args.family,
        family=args.family,
        n=args.n,
        seed=args.seed,
        range_mode=args.ranges,
        d=args.dim,
        p=_parse_p(args.p) if args.family == "euclidean" else None,
        w=args.w,
        eps=args.eps,
    )
    bundle = build_instance(spec)
    if args.out:
        write_instance(bundle, args.out)
    else:
        print(json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True))
    return 0


def _read_two_points(args) -> InstanceBundle:
    """The instance of a command whose bound or certificate needs two points."""
    bundle = read_instance(args.instance)
    if bundle.n < 2:
        raise ValueError(f"{args.command} needs at least two points, got n={bundle.n}")
    return bundle


def _cmd_sdg(args) -> int:
    bundle = read_instance(args.instance)
    sdg = build_sdg(bundle.space, bundle.ranges)
    _emit(
        {
            "n": sdg.n,
            "family": bundle.family,
            "edges": [[u, v, w] for u, v, w in sdg.edges],
            "weight": sdg.weight,
        },
        args.out,
    )
    return 0


def _cmd_msf(args) -> int:
    bundle = _read_two_points(args)
    p = Prepared(bundle.space, bundle.ranges)
    forest = p.msf
    report = weight_coefficient(p)
    data = {
        "n": forest.n,
        "family": bundle.family,
        "edges": [[u, v, w] for u, v, w in forest.edges],
        "connected": forest.connected,
        "w_msf_sdg": report.w_msf_sdg,
        "w_mst": report.w_mst_metric,
        "coefficient": report.coefficient,
        "bound_2log": None if math.isinf(report.bound) else report.bound,
    }
    if math.isinf(report.bound):
        data["note"] = "general-graph: bound not applicable"
    _emit(data, args.out)
    return 0


def _cmd_decompose(args) -> int:
    bundle = _read_two_points(args)
    # The approximate path needs the triangle inequality; graphs are solved exactly.
    p = Prepared(bundle.space, bundle.ranges, args.ham if bundle.space.is_metric else "exact")
    h, cert = p.path, p.certificate
    problems = verify_certificate(p.space, p.r, p.msf, h, cert)
    _emit(
        {
            "ham_order": list(h.order),
            "ham_weight": h.weight,
            "certificate": cert.to_dict(),
            "verified": not problems,
            "violations": problems,
        },
        args.out,
    )
    return 0 if not problems else 1


def _cmd_trace(args) -> int:
    bundle = _read_two_points(args)
    if not bundle.space.is_metric:
        raise InstanceFormatError("trace requires a metric instance")
    p = Prepared(bundle.space, bundle.ranges, args.ham)
    trace = lightness_trace(p)
    report = weight_coefficient(p)
    data = trace.to_dict()
    data["coefficient"] = report.coefficient
    data["bound_2log"] = report.bound
    _emit(data, args.out)
    return 0


def _cmd_assign(args) -> int:
    bundle = _read_two_points(args)
    if not bundle.space.is_metric:
        raise InstanceFormatError("assign requires a metric instance")
    report = bounded_assignment(Prepared(bundle.space, bundle.ranges))
    data = {
        "ranges": list(report.ranges.radii),
        "cost": report.cost,
        "w_forest": report.w_forest,
        "lower_bound": report.lower_bound,
        "feasible": report.feasible,
        "connected_input": report.connected_input,
    }
    ok = report.feasible and report.cost <= 2.0 * report.w_forest
    if report.connected_input:
        ratio = cost_ratio_check(report, bundle.n)
        data["cost_ratio"] = ratio.ratio
        data["cost_ratio_bound"] = ratio.bound
        ok = ok and ratio.ok
    _emit(data, args.out)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    bundle = read_instance(args.instance)
    space = bundle.space
    payload = read_json(args.certificate)
    if not (isinstance(payload, dict) and {"ham_order", "ham_weight", "certificate"} <= set(payload)):
        raise ValueError("certificate file must be a JSON object with ham_order, ham_weight and certificate")
    if type(payload["ham_weight"]) not in (int, float):
        raise ValueError(f"ham_weight must be a number, got {payload['ham_weight']!r}")
    # The stored weight is checked against the path's edges by verify_certificate.
    order = parse_vertices(payload["ham_order"], space.n, "ham_order")
    h = HamPath(order=order, weight=float(payload["ham_weight"]))
    cert = DecompositionCertificate.from_dict(payload["certificate"], space)
    forest = Prepared(space, bundle.ranges).msf
    problems = verify_certificate(space, bundle.ranges, forest, h, cert)
    _emit({"ok": not problems, "violations": problems}, args.out)
    return 0 if not problems else 1


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _cmd_sweep(args) -> int:
    for flag, count in (("--trials", args.trials), ("--workers", args.workers)):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    for path in filter(None, (args.out, args.svg)):  # fail as writing would, but before the sweep runs
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if args.family == "standard":
        specs = standard_suite(args.seed, trials=args.trials)
    else:
        if args.family == "euclidean":
            kinds = euclidean_kinds(_parse_int_list(args.dim), [_parse_p(x) for x in args.p.split(",") if x])
        else:
            kinds = [(args.family, args.family, None, None)]
        modes = RANGE_MODES if args.ranges == "both" else [args.ranges]
        specs = spec_grid(args.seed, args.trials, _parse_int_list(args.n), kinds, modes)
    records = run_sweep(specs, ham_mode=args.ham, workers=args.workers)
    if args.out:
        emit_csv(records, args.out)
    if args.svg:
        emit_svg(max_coefficient_by(records, lambda rec: rec.n), args.svg)
    print(emit_summary(records))
    over = [r.id for r in records if not r.within_bound()]
    failed = [r.id for r in records if not r.cert_ok]
    if over or failed:
        error = {
            "error": f"{len(over)} bound violations, {len(failed)} failed certificates",
            "bound_violations": over[:10],  # the first ten ids of each
            "failed_certificates": failed[:10],
        }
        print(json.dumps(error), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdglab",
        description="Symmetric disk graphs: light spanning forests, certificates, range assignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance JSON file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument(
        "--n",
        type=int,
        default=8,
        help="number of points (line: only n = 4 or 5 has a Hamiltonian path, so decompose needs one of them)",
    )
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--p", default="2")
    gen.add_argument("--w", type=float, default=None)
    gen.add_argument("--eps", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--ranges", choices=["uniform", "biased"], default="uniform")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    for name, func, help_text in (
        ("sdg", _cmd_sdg, "emit the symmetric disk graph edge list"),
        ("msf", _cmd_msf, "emit the disk graph MSF, weights and coefficient"),
        ("trace", _cmd_trace, "emit the peeling trace with its bound checks"),
        ("assign", _cmd_assign, "emit the bounded range assignment report"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("instance")
        cmd.add_argument("--out", default=None)
        if name == "trace":
            cmd.add_argument("--ham", choices=HAM_MODES, default="auto")
        cmd.set_defaults(func=func)

    dec = sub.add_parser("decompose", help="emit a verified lightness certificate")
    dec.add_argument("instance")
    dec.add_argument("--ham", choices=HAM_MODES, default="auto")
    dec.add_argument("--out", default=None)
    dec.set_defaults(func=_cmd_decompose)

    ver = sub.add_parser("verify", help="verify a certificate against an instance")
    ver.add_argument("instance")
    ver.add_argument("certificate")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)

    # No prefix matching: `sweep --w 1000` would otherwise mean `--workers 1000`.
    sweep = sub.add_parser("sweep", help="run a seeded instance grid and emit CSV", allow_abbrev=False)
    sweep.add_argument(
        "--family",
        default="standard",
        choices=["standard", "euclidean", "matrix", "star", "chain"],
    )
    sweep.add_argument("--n", default="8,16,32,64")
    sweep.add_argument("--dim", default="2")
    sweep.add_argument("--p", default="2")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--trials", type=int, default=1, help="seeded instances per grid cell (at least 1)")
    sweep.add_argument("--ranges", choices=["uniform", "biased", "both"], default="both")
    sweep.add_argument("--ham", choices=HAM_MODES, default="approx")
    sweep.add_argument(
        "--workers", type=int, default=None, help="evaluation processes (at least 1; default: up to one per CPU)"
    )
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--svg", default=None)
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BoundViolationError, ValueError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1 if isinstance(exc, BoundViolationError) else 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
