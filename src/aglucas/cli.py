"""Command-line interface.

Subcommands: check, bounds, certify, search, asymptotic, probe, plot.
Exit codes: 0 success, 1 negative verdict (the property failed or could not
be certified), 2 input error.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds as bounds_mod
from . import extremal, serialize, svg
from .certifier import (ContourBoundaryConflict, certify, exclusion_set,
                        split_instance)
from .engine import agl_report
from .errors import (AGLError, ContourNotFound, HypothesisUnmet,
                     MarginNonPositive, MultiplicityViolation,
                     NonIntegerWinding, SampleAtSingularity)
from .rational import ROOT_TOL, critical_points
from .regions import MEMBERSHIP_TOL, Disk, _check_eps


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_region_arg(text: str):
    data = json.loads(text) if text.lstrip().startswith("{") else _read_json(text)
    return serialize.region_from_json(data)


def _load_instance(args):
    data = _read_json(args.instance)
    f = serialize.function_from_json(data)
    if args.region:
        return f, _parse_region_arg(args.region)
    if isinstance(data, dict) and "region" in data:
        return f, serialize.region_from_json(data["region"])
    raise ValueError("no region: pass --region or embed one in the instance")


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aglucas",
        description="Approximate Gauss-Lucas checks, bounds, certificates, "
                    "searches and plots for rational functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default=None, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if fmt_default:
            p.add_argument("--format", choices=("json", "csv"),
                           default=fmt_default)

    p = sub.add_parser("check", help="count critical points near a region")
    p.add_argument("--instance", required=True, help="instance JSON file or -")
    p.add_argument("--region", default=None, help="region JSON (inline or file)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--root-tol", type=float, default=ROOT_TOL)
    p.add_argument("--membership-tol", type=float, default=MEMBERSHIP_TOL)
    common(p, "json", seed=False)

    p = sub.add_parser("bounds", help="closed-form bound table")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-values", default=None,
                   help="comma-separated list, overrides --n")
    p.add_argument("--gap", type=int, required=True)
    p.add_argument("--s", type=float, required=True, help="region diameter")
    common(p, "csv", seed=False)

    p = sub.add_parser("certify", help="contour certificate for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--min-samples", type=int, default=512)
    p.add_argument("--membership-tol", type=float, default=MEMBERSHIP_TOL)
    common(p)

    p = sub.add_parser("search", help="maximize the required eps by search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--radius", type=float, default=1.0,
                   help="radius of the centred disk searched by default")
    p.add_argument("--region", default=None,
                   help="region JSON (inline or file) instead of the disk")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--iters", type=int, default=500)
    common(p, "json")

    p = sub.add_parser("asymptotic", help="captured-fraction sweep over n")
    p.add_argument("--region", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n-values", required=True)
    p.add_argument("--outside", type=int, default=1)
    common(p, "csv")

    p = sub.add_parser("probe", help="failure rates at fixed eps over ratios")
    p.add_argument("--region", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--ratios", required=True, help="comma-separated k/(n-k)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--n-values", default="8,16,32")
    common(p, "csv")

    p = sub.add_parser("plot", help="render an instance scene as SVG")
    p.add_argument("--instance", required=True)
    p.add_argument("--region", default=None)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--k", type=int, default=None,
                   help="with --with-contour, the k to certify")
    p.add_argument("--with-contour", action="store_true")
    common(p)

    return parser


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _cmd_check(args) -> int:
    f, region = _load_instance(args)
    report = agl_report(f, region, args.eps, args.k,
                        membership_tol=args.membership_tol,
                        root_tol=args.root_tol)
    payload = serialize.agl_report_to_json(report)
    if args.format == "csv":
        _emit(args, "holds,zeros_in_region,critical_in_neighborhood,"
                    "required_epsilon\n"
                    f"{report.holds},{report.zeros_in_region},"
                    f"{report.critical_in_neighborhood},"
                    f"{report.required_epsilon!r}\n")
    else:
        _emit(args, _dump(payload))
    return 0 if report.holds else 1


def _cmd_bounds(args) -> int:
    if args.n_values:
        ns = _int_list(args.n_values)
    elif args.n is not None:
        ns = [args.n]
    else:
        raise ValueError("pass --n or --n-values")
    reports = bounds_mod.bound_table(ns, args.gap, args.s)
    if args.format == "json":
        payload = [{"n": r.n, "k": r.k, "s": r.s, "best": r.best,
                    "entries": {name: e.value
                                for name, e in r.entries.items()}}
                   for r in reports]
        _emit(args, _dump(payload))
    else:
        _emit(args, bounds_mod.bound_table_csv(reports))
    return 0


def _cmd_certify(args) -> int:
    f, region = _load_instance(args)
    try:
        cert = certify(f, region, args.eps, args.k,
                       min_samples=args.min_samples, seed=args.seed,
                       membership_tol=args.membership_tol)
    except (MarginNonPositive, ContourNotFound, NonIntegerWinding,
            SampleAtSingularity, ContourBoundaryConflict,
            MultiplicityViolation) as exc:
        _emit(args, _dump(serialize.certificate_failure_json(
            f"{type(exc).__name__}: {exc}", args.eps, args.k)))
        return 1
    _emit(args, _dump(serialize.certificate_to_json(cert)))
    return 0 if cert.valid else 1


def _cmd_search(args) -> int:
    if args.region:
        region = _parse_region_arg(args.region)
    else:
        region = Disk(0.0, args.radius)
    result = extremal.search_psi(args.n, args.k, region,
                                 restarts=args.restarts, iters=args.iters,
                                 seed=args.seed)
    if args.format == "csv":
        _emit(args, serialize.search_trace_csv(result))
    else:
        _emit(args, _dump(serialize.search_result_to_json(result)))
    return 0


def _cmd_asymptotic(args) -> int:
    region = _parse_region_arg(args.region)
    rows = extremal.asymptotic_experiment(region, args.eps,
                                          _int_list(args.n_values),
                                          args.outside, args.seed)
    if args.format == "json":
        _emit(args, _dump([row.__dict__ for row in rows]))
    else:
        _emit(args, serialize.asymptotic_rows_csv(rows))
    return 0


def _cmd_probe(args) -> int:
    region = _parse_region_arg(args.region)
    rows = extremal.conjecture_probe(region, args.eps,
                                     _float_list(args.ratios), args.trials,
                                     args.seed,
                                     n_values=tuple(_int_list(args.n_values)))
    if args.format == "json":
        _emit(args, _dump([row.__dict__ for row in rows]))
    else:
        _emit(args, serialize.probe_rows_csv(rows))
    return 0


def _cmd_plot(args) -> int:
    _check_eps(args.eps)
    if math.isinf(args.eps):
        raise ValueError("eps must be finite to draw its neighborhood")
    f, region = _load_instance(args)
    crit = critical_points(f)
    contour = None
    exclusions = None
    if args.with_contour:
        if args.k is None:
            raise ValueError("--with-contour requires --k")
        cert = certify(f, region, args.eps, args.k, seed=args.seed)
        contour = cert.contour
        _, remainder = split_instance(cert.function, region)
        exclusions = exclusion_set(remainder, args.eps,
                                   max(f.total_count - args.k, 1))
    scene = svg.Scene(region=region, eps=args.eps, zeros=f.zeros,
                      poles=f.poles, critical=tuple(crit.points),
                      contour=contour, exclusions=exclusions)
    _emit(args, svg.render_svg(scene))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "bounds": _cmd_bounds,
    "certify": _cmd_certify,
    "search": _cmd_search,
    "asymptotic": _cmd_asymptotic,
    "probe": _cmd_probe,
    "plot": _cmd_plot,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except HypothesisUnmet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AGLError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
