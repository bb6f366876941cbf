"""Command-line front end: generation, validation, solving, sweeps.

Reports are canonical JSON (sorted keys, versioned schema, no timestamps or
wall-clock fields), so a given seed and option set produces byte-identical
output on every run.  Exit codes: 0 success, 2 validation or usage failure,
3 solver hit its budget without finding any incumbent, 4 no feasible point
exists.  Instances come from :mod:`tariff_complex.generator`.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .analysis import beta_sweep, check_metric_estimates, profit_sweep
from .bnb import SolveReport, SolverOptions, solve_det, solve_quad
from .generator import GeneratorConfig, generate
from .model import Instance, InstanceError, canonical_report, load_instance, validate
from .price_complex import det_oracle, quad_oracle
from .qspc import QspcOptions, qspc
from .response import det_response_set, quad_response

log = logging.getLogger("tariff_complex.cli")

_THREADS_HELP = "accepted and ignored: the engine is sequential"

# ---------------------------------------------------------------------------
# report plumbing


def _emit(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _solve_payload(rep: SolveReport, model: str, method: str,
                   beta: float | None) -> dict:
    payload = {
        "model": model,
        "method": method,
        "beta": beta,
        "status": rep.status,
        "value": rep.objective if rep.has_incumbent() else None,
        "bound": rep.bound,
        "gap": rep.gap,
        "node_count": rep.node_count,
        "prices": None if rep.x is None else rep.x,
        "pattern": None if rep.pattern is None else rep.pattern.A,
        "response": None if rep.response is None else rep.response.ybar,
        "log": rep.trace,
    }
    return payload


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    try:
        inst = load_instance(args.instance, strict=False)
    except InstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2
    errors = validate(inst)
    if errors:
        for e in errors:
            print(f"invalid instance: {e}", file=sys.stderr)
        return 2
    _emit(canonical_report({"instance": args.instance, "valid": True,
                            "S": inst.S, "W": inst.W, "H": inst.H}), args.out)
    return 0


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(S=args.segments, n_company_contracts=args.contracts,
                          seed=args.seed)
    inst = generate(cfg)
    _emit(inst.to_json(), args.out)
    return 0


def _report_exit(rep: SolveReport) -> int:
    if rep.status == "time_limit" and not rep.has_incumbent():
        return 3
    if rep.status == "infeasible":
        return 4
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.model == "logit":
        print("no exact solver ships for the logit model; evaluate prices via "
              "`sweep-profit --models logit` or compare responses via "
              "`compare-logit`", file=sys.stderr)
        return 2
    if args.model == "quad" and args.beta is None:
        print("--beta is required with --model quad", file=sys.stderr)
        return 2
    opts = SolverOptions(gap=args.gap, time_limit_s=args.time_limit)
    if args.model == "det":
        if args.method == "qspc":
            print("qspc serves the quadratic model only; use --method bnb or "
                  "cell-enum with --model det", file=sys.stderr)
            return 2
        if args.method == "cell-enum":
            res = det_oracle(inst, max_patterns=args.max_patterns)
            rep = _oracle_report(inst, res, beta=None)
        else:
            rep = solve_det(inst, opts)
        payload = _solve_payload(rep, "det", args.method, None)
    else:
        if args.method == "qspc":
            qopts = QspcOptions(rng_seed=args.seed, time_limit_s=args.time_limit,
                                restart_gap=args.gap if args.gap is not None else 3e-2)
            rep = qspc(inst, args.beta, opts=qopts)
        elif args.method == "cell-enum":
            res = quad_oracle(inst, args.beta, max_patterns=args.max_patterns)
            rep = _oracle_report(inst, res, beta=args.beta)
        else:
            rep = solve_quad(inst, args.beta, opts)
        payload = _solve_payload(rep, "quad", args.method, args.beta)
    _emit(canonical_report(payload), args.out)
    return _report_exit(rep)


def _oracle_report(inst: Instance, res, beta) -> SolveReport:
    if res.pattern is None:
        return SolveReport(status="infeasible", objective=-math.inf, bound=None,
                           gap=None, x=None, response=None, pattern=None,
                           node_count=res.n_total, wall_time_s=0.0)
    if beta is None:
        _, resp = det_response_set(inst, res.x)
    else:
        resp, _ = quad_response(inst, res.x, beta)
    return SolveReport(status="optimal", objective=res.value, bound=res.value,
                       gap=0.0, x=res.x, response=resp, pattern=res.pattern,
                       node_count=res.n_total, wall_time_s=0.0,
                       extras={"n_feasible": res.n_feasible, "n_capped": res.n_capped})


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    if args.model == "quad":
        if args.beta is None:
            print("--beta is required with --model quad", file=sys.stderr)
            return 2
        res = quad_oracle(inst, args.beta, max_patterns=args.max_patterns)
    else:
        res = det_oracle(inst, max_patterns=args.max_patterns)
    payload = {
        "model": args.model,
        "beta": args.beta,
        "value": res.value,
        "pattern": None if res.pattern is None else res.pattern.A,
        "prices": None if res.x is None else res.x,
        "n_feasible_patterns": res.n_feasible,
        "n_patterns": res.n_total,
    }
    _emit(canonical_report(payload), args.out)
    return 0


def _cmd_sweep_profit(args) -> int:
    inst = load_instance(args.instance)
    w, h = (int(t) for t in args.axis.split(","))
    betas = [float(b) for b in args.betas.split(",")] if args.betas else []
    models = tuple(args.models.split(","))
    lo = args.lo if args.lo is not None else float(inst.polytope.lower[w, h])
    hi = args.hi if args.hi is not None else float(inst.polytope.upper[w, h])
    table = profit_sweep(inst, (w, h), lo, hi, args.points, betas, models)
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_sweep_beta(args) -> int:
    inst = load_instance(args.instance)
    betas = [float(b) for b in args.betas.split(",")]
    det_rep = solve_det(inst, SolverOptions(gap=args.gap,
                                            time_limit_s=args.time_limit))
    if not det_rep.has_incumbent():
        print("deterministic stage found no incumbent within budget",
              file=sys.stderr)
        return 3
    qopts = QspcOptions(rng_seed=args.seed, time_limit_s=args.time_limit)
    table = beta_sweep(inst, betas, det_rep.x, method=args.method,
                       qspc_opts=qopts,
                       solver_opts=SolverOptions(time_limit_s=args.time_limit))
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_compare_logit(args) -> int:
    inst = load_instance(args.instance)
    x = inst.polytope.midpoint()
    if args.prices:
        x = np.array(json.loads(args.prices), dtype=float).reshape(inst.W, inst.H)
    V = inst.disutilities(x)
    segments = []
    for s in range(inst.S):
        rep = check_metric_estimates(V[s], args.beta)
        segments.append({
            "segment": s,
            "forward_ok": rep.forward_ok,
            "converse_ok": rep.converse_ok,
            "l1_distance": rep.l1_distance,
            "quad_response": rep.y_quad,
            "logit_response": rep.y_log,
        })
    payload = {
        "beta": args.beta,
        "beta_prime": args.beta * math.e / 4.0,
        "prices": x,
        "segments": segments,
        "all_ok": all(s["forward_ok"].all() and s["converse_ok"].all()
                      for s in segments),
    }
    _emit(canonical_report(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tariff-complex",
        description="Envy-free tariff pricing with regularized customer response")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--segments", type=int, default=10)
    p.add_argument("--contracts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="optimize prices on an instance")
    p.add_argument("instance")
    p.add_argument("--model", choices=("det", "logit", "quad"), required=True)
    p.add_argument("--method", choices=("bnb", "qspc", "cell-enum"), default="bnb")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gap", type=float, default=None)
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--max-patterns", type=int, default=1_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive enumeration ground truth")
    p.add_argument("instance")
    p.add_argument("--model", choices=("det", "quad"), default="quad")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--max-patterns", type=int, default=1_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep-profit", help="profit along one price coordinate")
    p.add_argument("instance")
    p.add_argument("--axis", default="0,0", help="contract,attribute")
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--betas", default="1.0")
    p.add_argument("--models", default="det,logit,quad")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep_profit)

    p = sub.add_parser("sweep-beta", help="optimal value versus beta")
    p.add_argument("instance")
    p.add_argument("--betas", required=True)
    p.add_argument("--method", choices=("qspc", "bnb"), default="qspc")
    p.add_argument("--gap", type=float, default=None)
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep_beta)

    p = sub.add_parser("compare-logit", help="paired response bounds check")
    p.add_argument("instance")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--prices", default=None, help="JSON W x H price matrix")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare_logit)

    return ap


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("TARIFF_COMPLEX_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO),
                            stream=sys.stderr,
                            format="%(name)s %(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
