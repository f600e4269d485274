"""Command-line front end.

Subcommands: gen, sdg, msf, decompose, trace, assign, sweep, verify.
Results are JSON on stdout (or --out); errors are machine-readable JSON on
stderr. Exit status 0 means every check passed, 1 a violated bound or failed
verification, 2 invalid input.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .assignment import bounded_assignment, cost_ratio_check
from .decomposition import (
    BoundViolationError,
    DecompositionCertificate,
    decompose,
    graph_weight_coefficient,
    lightness_bound,
    lightness_trace,
    verify_certificate,
    weight_coefficient,
)
from .disk import build_sdg, build_sdg_graph, sdg_msf
from .graph import kruskal_msf
from .hamiltonian import HamPath, ham_path, path_weight
from .instances import (
    InstanceFormatError,
    gen_c3,
    gen_chain_metric,
    gen_line_graph,
    gen_random_euclidean,
    gen_random_matrix_metric,
    gen_random_ranges,
    gen_star_metric,
    InstanceBundle,
    read_instance,
    write_instance,
)
from .metric import MetricError
from .sweep import (
    InstanceSpec,
    emit_csv,
    emit_summary,
    emit_svg,
    mix_seed,
    run_sweep,
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
    if args.family == "star":
        bundle = gen_star_metric(args.n)
    elif args.family == "chain":
        bundle = gen_chain_metric(args.n)
    elif args.family == "c3":
        bundle = gen_c3(args.w if args.w is not None else 1000.0)
    elif args.family == "line":
        bundle = gen_line_graph(args.n, args.w, args.eps)
    elif args.family in ("euclidean", "matrix"):
        if args.family == "euclidean":
            metric = gen_random_euclidean(args.n, args.dim, _parse_p(args.p), args.seed)
        else:
            metric = gen_random_matrix_metric(args.n, args.seed)
        ranges = gen_random_ranges(metric, args.ranges, mix_seed(args.seed, 1))
        bundle = InstanceBundle(
            family=args.family, metric=metric, ranges=ranges, seed=args.seed
        )
    else:
        raise InstanceFormatError(f"unknown family {args.family!r}")
    if args.out:
        write_instance(bundle, args.out)
    else:
        from .instances import bundle_to_dict

        print(json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True))
    return 0


def _read_two_points(args) -> InstanceBundle:
    """The instance of a command whose bound or certificate needs two points."""
    bundle = read_instance(args.instance)
    if bundle.n < 2:
        raise ValueError(f"{args.command} needs at least two points, got n={bundle.n}")
    return bundle


def _instance_sdg(bundle: InstanceBundle):
    if bundle.metric is not None:
        return build_sdg(bundle.metric, bundle.ranges)
    return build_sdg_graph(bundle.graph, bundle.ranges)


def _instance_msf(bundle: InstanceBundle):
    if bundle.metric is not None:
        return sdg_msf(bundle.metric, bundle.ranges)
    return kruskal_msf(build_sdg_graph(bundle.graph, bundle.ranges))


def _cmd_sdg(args) -> int:
    bundle = read_instance(args.instance)
    sdg = _instance_sdg(bundle)
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
    forest = _instance_msf(bundle)
    if bundle.metric is not None:
        report = weight_coefficient(bundle.metric, bundle.ranges)
        note = None
    else:
        report = graph_weight_coefficient(bundle.graph, bundle.ranges)
        note = "general-graph: bound not applicable"
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
    if note:
        data["note"] = note
    _emit(data, args.out)
    return 0


def _instance_ham(bundle: InstanceBundle, mode: str) -> HamPath:
    space = bundle.metric if bundle.metric is not None else bundle.graph
    if bundle.graph is not None:
        return ham_path(space, mode="exact")
    return ham_path(space, mode=mode)


def _cmd_decompose(args) -> int:
    bundle = _read_two_points(args)
    space = bundle.metric if bundle.metric is not None else bundle.graph
    forest = _instance_msf(bundle)
    h = _instance_ham(bundle, args.ham)
    cert = decompose(space, bundle.ranges, forest, h)
    problems = verify_certificate(space, bundle.ranges, forest, h, cert)
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
    if bundle.metric is None:
        raise InstanceFormatError("trace requires a metric instance")
    trace = lightness_trace(bundle.metric, bundle.ranges, ham_mode=args.ham)
    report = weight_coefficient(bundle.metric, bundle.ranges)
    data = trace.to_dict()
    data["coefficient"] = report.coefficient
    data["bound_2log"] = report.bound
    _emit(data, args.out)
    return 0


def _cmd_assign(args) -> int:
    bundle = _read_two_points(args)
    if bundle.metric is None:
        raise InstanceFormatError("assign requires a metric instance")
    report = bounded_assignment(bundle.metric, bundle.ranges)
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
    space = bundle.metric if bundle.metric is not None else bundle.graph
    payload = json.loads(Path(args.certificate).read_text())
    order = tuple(int(v) for v in payload["ham_order"])
    h = HamPath(order=order, weight=path_weight(space, order), exact=False)
    cert = DecompositionCertificate.from_dict(payload["certificate"], space)
    forest = kruskal_msf(_instance_sdg(bundle))
    problems = verify_certificate(space, bundle.ranges, forest, h, cert)
    _emit({"ok": not problems, "violations": problems}, args.out)
    return 0 if not problems else 1


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _cmd_sweep(args) -> int:
    if args.family == "standard":
        specs = standard_suite(args.seed, trials=args.trials)
    else:
        specs = []
        index = 0
        dims = _parse_int_list(args.dim)
        ps = [_parse_p(x) for x in args.p.split(",") if x]
        modes = ["uniform", "biased"] if args.ranges == "both" else [args.ranges]
        for trial in range(args.trials):
            for n in _parse_int_list(args.n):
                combos = (
                    [(d, p) for d in dims for p in ps]
                    if args.family == "euclidean"
                    else [(None, None)]
                )
                for d, p in combos:
                    for mode in modes:
                        seed = mix_seed(args.seed, index)
                        tag = f"d{d}p{p:g}" if d is not None else args.family
                        specs.append(
                            InstanceSpec(
                                id=f"{args.family}-{tag}-n{n:03d}-{mode}-t{trial}",
                                family=args.family,
                                n=n,
                                seed=seed,
                                range_mode=mode,
                                d=d,
                                p=p,
                                w=args.w,
                                eps=args.eps,
                            )
                        )
                        index += 1
    records = run_sweep(specs, ham_mode=args.ham, workers=args.workers)
    if args.out:
        emit_csv(records, args.out)
    if args.svg:
        emit_svg(records, args.svg)
    print(emit_summary(records))
    bad = [r for r in records if not (r.within_bound() and r.cert_ok)]
    if bad:
        print(
            json.dumps({"error": "bound violations", "ids": [r.id for r in bad[:10]]}),
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdglab",
        description="Symmetric disk graphs: light spanning forests, certificates, range assignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance JSON file")
    gen.add_argument("--family", required=True, choices=["star", "chain", "c3", "line", "euclidean", "matrix"])
    gen.add_argument("--n", type=int, default=8)
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
            cmd.add_argument("--ham", choices=["exact", "approx", "auto"], default="auto")
        cmd.set_defaults(func=func)

    dec = sub.add_parser("decompose", help="emit a verified lightness certificate")
    dec.add_argument("instance")
    dec.add_argument("--ham", choices=["exact", "approx", "auto"], default="auto")
    dec.add_argument("--out", default=None)
    dec.set_defaults(func=_cmd_decompose)

    ver = sub.add_parser("verify", help="verify a certificate against an instance")
    ver.add_argument("instance")
    ver.add_argument("certificate")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)

    sweep = sub.add_parser("sweep", help="run a seeded instance grid and emit CSV")
    sweep.add_argument(
        "--family",
        default="standard",
        choices=["standard", "euclidean", "matrix", "star", "chain"],
    )
    sweep.add_argument("--n", default="8,16,32,64")
    sweep.add_argument("--dim", default="2")
    sweep.add_argument("--p", default="2")
    sweep.add_argument("--w", type=float, default=None)
    sweep.add_argument("--eps", type=float, default=None)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--ranges", choices=["uniform", "biased", "both"], default="both")
    sweep.add_argument("--ham", choices=["exact", "approx", "auto"], default="approx")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--svg", default=None)
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, MetricError, ValueError, FileNotFoundError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 2
    except BoundViolationError as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
