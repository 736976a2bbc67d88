"""Command-line front end: solve, certify, validate, catalog.

Exit codes: 0 success, 2 solver failure (the loop ended without meeting
its stopping test), 3 configuration/parse errors and evaluations outside
an expression's domain.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys

import numpy as np

from .alpf import (
    AlpfConfig,
    BlockPartition,
    STATUS_APPROX,
    STATUS_KKT,
    format_table,
    solve_alpf,
    solve_decomposed,
    solve_penalty,
    trace_to_jsonl,
)
from .certificate import certify
from .expr import DomainError, Point, norm0_thresholded
from .inner import InnerConfig
from .model import (
    ProblemFormatError,
    check_feasible,
    load_problem_file,
    sample_convexity,
    validate_exactness,
)
from .problems import CatalogEntry, build, catalog_ids

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; we use 3
        raise CliError(message)


def _build_parser():
    parser = _Parser(prog="cnfopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--catalog", help="builtin problem id (see 'cnfopt catalog')")
        src.add_argument("--problem", help="path to a problem text file")
        p.add_argument("--n", type=int, help="dimension parameter for sized entries")
        p.add_argument("--lambda", dest="lam", type=float, help="0-norm weight")
        p.add_argument("--i", dest="I", type=int, help="sample count for the multi-class entry")
        p.add_argument("--b", type=float, help="target scalar for the 0-norm fit entry")

    solve = sub.add_parser("solve", help="run a solver and print the iteration trace")
    add_source(solve)
    solve.add_argument("--seed", type=int, default=0, help="seed of the stop test's sampling")
    solve.add_argument("--solver", choices=["alpf", "penalty", "decomposed"], default="alpf")
    solve.add_argument("--eps", type=float, default=1e-6)
    solve.add_argument("--rho0", type=float, default=10.0)
    solve.add_argument("--growth", type=float, default=100.0)
    solve.add_argument("--max-outer", type=int, default=50)
    solve.add_argument("--inner", choices=["gd", "newton"], default="gd")
    solve.add_argument("--inner-iters", type=int, default=10000)
    solve.add_argument("--start", help="comma-separated start, zero-padded to n+m")
    solve.add_argument("--start-pattern", choices=["linear", "constant"],
                       help="generated start: linear = (1,2,...), constant = --start-const")
    solve.add_argument("--start-const", type=float, default=0.0)
    solve.add_argument("--blocks", type=int, help="block count (decomposed solver)")
    solve.add_argument("--sigma0", type=float, help="decomposition penalty start (default 2*rho0)")
    solve.add_argument("--output", choices=["table", "json", "jsonl"])

    cert = sub.add_parser("certify", help="optimality tests at a supplied point")
    add_source(cert)
    cert.add_argument("--point", required=True,
                      help="comma-separated lifted point (n+m values) or x alone (lifted)")
    cert.add_argument("--feas-tol", type=float, default=1e-6)

    val = sub.add_parser("validate", help="sampled model validation of a problem")
    add_source(val)
    val.add_argument("--seed", type=int, default=0, help="seed of the sampled checks")
    val.add_argument("--samples", type=int, default=500)
    val.add_argument("--output", choices=["table", "json", "jsonl"])

    sub.add_parser("catalog", help="list builtin problems")
    return parser


def _load_entry(args):
    if args.catalog:
        params = {}
        if args.n is not None:
            params["n"] = args.n
        if args.lam is not None:
            params["lam"] = args.lam
        if args.I is not None:
            params["I"] = args.I
        if args.b is not None:
            params["b"] = args.b
        try:
            return build(args.catalog, **params)
        except (KeyError, TypeError, ValueError) as err:
            # str() of a KeyError is the repr of its message, quotes and all
            raise CliError(err.args[0] if isinstance(err, KeyError) else str(err)) from err
    try:
        prob = load_problem_file(args.problem)
    except OSError as err:
        raise CliError(f"cannot read {args.problem}: {err}") from err
    except ProblemFormatError as err:
        raise CliError(str(err)) from err
    return CatalogEntry(id=prob.name, params={}, problem=prob, start=prob.default_start())


def _parse_vector(text, length, pad=True):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise CliError(f"bad vector {text!r}: {err}") from err
    if not np.isfinite(values).all():
        raise CliError(f"bad vector {text!r}: entries must be finite")
    if len(values) > length:
        raise CliError(f"vector has {len(values)} entries, expected at most {length}")
    if len(values) < length and not pad:
        raise CliError(f"vector has {len(values)} entries, expected {length}")
    return np.array(values + [0.0] * (length - len(values)))


def _resolve_start(args, entry):
    prob = entry.problem
    total = prob.n + prob.m
    if args.start is not None and args.start_pattern is not None:
        raise CliError("--start and --start-pattern are mutually exclusive")
    if args.start is not None:
        vec = _parse_vector(args.start, total)
        return Point.from_flat(vec, prob.n, prob.m)
    if args.start_pattern == "linear":
        return Point.from_flat(np.arange(1.0, total + 1), prob.n, prob.m)
    if args.start_pattern == "constant":
        return Point.from_flat(np.full(total, args.start_const), prob.n, prob.m)
    return entry.start


def _output_mode(args):
    if getattr(args, "output", None):
        return args.output
    return "table" if sys.stdout.isatty() else "jsonl"


def _summary(entry, trace):
    prob = entry.problem
    rec = trace.final
    p = rec.point
    verdict = None
    # the point is only e-accurate, so the certificate tolerances scale
    # with the achieved accuracy rather than the exact-point defaults; a
    # run that did not stop, or whose e is not finite, gets no verdict,
    # for infinite tolerances would accept any point
    if trace.status in (STATUS_KKT, STATUS_APPROX) and math.isfinite(rec.e):
        verdict = certify(
            prob, p, feas_tol=max(1e-6, 10 * rec.e), cert_tol=max(1e-8, 100 * rec.e)
        ).verdict
    f_val = prob.reference(p.x) if prob.reference_f is not None else rec.g
    return {
        "x": [float(v) for v in rec.x],
        "f": float(f_val),
        "e": rec.e,
        "norm0": norm0_thresholded(rec.x),
        "status": trace.status,
        "verdict": verdict,
    }


def _json_summary(summary):
    """The summary with each non-finite number as None, which JSON writes as
    null: NaN and Infinity are not JSON."""
    def number(v):
        return v if math.isfinite(v) else None

    return {**summary, "x": [number(v) for v in summary["x"]], "f": number(summary["f"]),
            "e": number(summary["e"])}


def _cmd_solve(args):
    entry = _load_entry(args)
    prob = entry.problem
    if args.solver == "decomposed" and not args.blocks:
        raise CliError("--solver decomposed requires --blocks")
    try:  # the configurations and the partition check their numbers
        inner = InnerConfig(
            method="newton_fd" if args.inner == "newton" else "gradient_descent",
            max_iters=args.inner_iters,
        )
        cfg = AlpfConfig(
            eps=args.eps,
            rho0=args.rho0,
            growth=args.growth,
            max_outer=args.max_outer,
            inner=inner,
            start=_resolve_start(args, entry),
            seed=args.seed,
            sigma0=args.sigma0,
        )
        if args.solver == "decomposed":
            partition = BlockPartition.contiguous(prob, args.blocks)
    except ValueError as err:
        raise CliError(str(err)) from err
    if args.solver == "alpf":
        trace = solve_alpf(prob, cfg)
    elif args.solver == "penalty":
        trace = solve_penalty(prob, cfg)
    else:
        trace = solve_decomposed(prob, partition, cfg)

    summary = _summary(entry, trace)
    mode = _output_mode(args)
    if mode == "table":
        print(format_table(trace, surrogate=entry.norm0_surrogate))
        xs = ", ".join(f"{v:.6f}" for v in summary["x"])
        print(
            f"x = ({xs})  f = {summary['f']:.6g}  e = {summary['e']:.3g}  "
            f"||x||_0 = {summary['norm0']}  verdict = {summary['verdict'] or 'none'}"
        )
    elif mode == "jsonl":
        sys.stdout.write(trace_to_jsonl(trace))
        print(json.dumps({"summary": _json_summary(summary)}))
    else:
        doc = {
            "problem": trace.problem,
            "solver": trace.solver,
            "status": trace.status,
            "records": [rec.to_dict() for rec in trace.records],
            "summary": _json_summary(summary),
        }
        print(json.dumps(doc, indent=2))
    return EXIT_OK if trace.status in (STATUS_KKT, STATUS_APPROX) else EXIT_SOLVER


def _cmd_certify(args):
    if not args.feas_tol > 0:
        raise CliError("--feas-tol must be positive")
    entry = _load_entry(args)
    prob = entry.problem
    tokens = [t for t in args.point.split(",") if t.strip() != ""]
    if len(tokens) == prob.n and prob.lift_map is not None and prob.m > 0:
        p = prob.lift(_parse_vector(args.point, prob.n, pad=False))
    else:
        p = Point.from_flat(
            _parse_vector(args.point, prob.n + prob.m, pad=False), prob.n, prob.m
        )
    cert = certify(prob, p, feas_tol=args.feas_tol)
    print(cert.to_json(indent=2))
    return EXIT_OK


def _cmd_validate(args):
    if args.samples <= 0:
        raise CliError("--samples must be positive")
    if args.seed < 0:
        raise CliError("--seed must be an integer >= 0")
    entry = _load_entry(args)
    prob = entry.problem
    report = {
        "problem": prob.name,
        "dims": {"n": prob.n, "m": prob.m, "s": prob.s, "r": prob.r},
        "convexity_violations": sample_convexity(prob, samples=args.samples, seed=args.seed),
    }
    if prob.lift_map is not None and prob.reference_f is not None:
        report["max_exactness_gap"] = validate_exactness(
            prob, samples=args.samples, seed=args.seed
        )
    if prob.lift_map is not None:
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(min(args.samples, 200)):
            x = rng.uniform(prob.box[0], prob.box[1], prob.n)
            rep = check_feasible(prob, prob.lift(x), tol=1e-8)
            worst = max(worst, rep.max_ineq_violation, rep.max_eq_residual)
        report["max_lift_residual"] = worst
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _cmd_catalog(_args):
    for entry_id in catalog_ids():
        entry = build(entry_id)
        prob = entry.problem
        flags = []
        if prob.exact:
            flags.append("exact")
        if entry.norm0_surrogate is not None:
            flags.append("0-norm")
        extra = f"  [{', '.join(flags)}]" if flags else ""
        print(
            f"{entry_id:5s} n={prob.n:<3d} m={prob.m:<3d} s={prob.s:<3d} r={prob.r:<3d}"
            f" params={entry.params}{extra}"
        )
    return EXIT_OK


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_catalog(args)
    except (CliError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
