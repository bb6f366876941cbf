#!/usr/bin/env python3
"""Benchmark of the tariff-complex solvers on fixed-work workloads.

Run from the repository root:

    python3 bench/run.py --workload quad-bnb --seed 0 --seconds 20 --trace 0

Workloads: quad-bnb, det-bnb, qspc, sweep (see bench/README.md).  Each run
runs the workload's fixed job list as a closed loop (one job after another,
in one thread) for as many whole passes as fit in ``--seconds``, at least
four, and sets up once before the first pass and twice after each pass.
A set-up round has three parts (fresh-interpreter import, building and
validating the workload, one warm-up job); ``setup_s`` adds up each part's
fastest round.

``wall_ref`` is one pass's wall time in units of a fixed kernel that a
speed probe (``probe.py``) runs every 50 ms during the pass, median over the
passes.  On a shared 2-core VM one pass's time was seen to swing up to 2x
within minutes with other tenants' load, and the kernel's time swings with
it; the ratio stays steady where the seconds do not.  The median pass in
seconds (``wall_s``), the kernel's median time (``probe_s``) and per-request
percentiles are in the detail line.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs untraced and traced passes alternately, two of each, reports per-layer
metrics from spans recorded around each module's public functions, and
requires every count to repeat exactly between the two traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Before it come a
table of the metrics (name, value, unit) and a ``{"detail": ...}`` line with
every figure of the run, the failures and the environment.  Correctness is
checked after the timed region.
"""

import os

# Single-threaded BLAS before numpy is imported, so runs are repeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import PERIOD_S, SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_PASSES = 4
MAX_MEASURE_S = 90.0  # no further pass starts once it would end after this
TRACED_PASSES = 2
SETUP_ROUNDS_PER_PASS = 2
WORKLOAD_NAMES = ("quad-bnb", "det-bnb", "qspc", "sweep")

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}
# Further end-to-end figures, in the detail line of the workloads they apply to.
DETAIL_UNITS = {"wall_s": "s", "probe_s": "s", "evals_per_s": "1/s", "eval_us_p50": "us",
                "eval_us_p99": "us", "nodes": "count", "gap_mean": "ratio",
                "objective_mean": "profit", "failed_frac": "ratio"}

# Per-layer metrics of a traced run: span counts and self-time shares per
# function, counters taken from return values, and the jobs' own figures.
_SPANS = (
    "subqp.solve_qp.bnb", "subqp.solve_qp.price_complex",
    "price_complex.cell_system", "price_complex.cell_qp", "price_complex.neighbors",
    "price_complex.solve_cell", "price_complex.pure_assignment_lp",
    "response.quad_response", "response.logit_response", "response.det_response_set",
    "bnb.solve_quad", "bnb.solve_det", "qspc.explore_good_neighbors", "qspc.miqp_restart",
)
_COUNTERS = tuple(f"subqp.solve_qp.{c}.{k}" for c in ("bnb", "price_complex")
                  for k in ("iters", "iter_cap_hits", "ridge", "infeasible",
                            "phase1_iters", "phase1_iter_cap_hits")) + (
    "price_complex.solve_cell.infeasible", "bnb.nodes")
_QSPC_EXTRAS = ("n_explore", "n_restarts", "n_infeasible_neighbors")
PER_LAYER = {
    **{f"{s}.calls": "count" for s in _SPANS},
    **{f"{s}.self_frac": "ratio" for s in _SPANS},
    **{c: "count" for c in _COUNTERS},
    "price_complex.solve_cell.infeasible_frac": "ratio",
    **{f"qspc.{k}": "count" for k in _QSPC_EXTRAS},
    "job.objective_mean": "profit",
    "job.gap_mean": "ratio",
    "job.det_default_tie_mismatch": "count",
    "job.quad_boundary_mismatch": "count",
    "trace_overhead_frac": "ratio",
}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import tariff_complex; "
                 "print(time.perf_counter() - t)")


def _load_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    init = SRC / "tariff_complex" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tariff_complex
    if Path(tariff_complex.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported {tariff_complex.__file__}, expected {init}")


def _import_seconds() -> float:
    """Package import time in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


class Pass:
    """One run of the fixed job list.

    With ``probed``, a :class:`SpeedProbe` samples the host's speed all
    through the pass.  Each job's time leaves out the probe's own runs, and
    ``wall_ref`` is the pass's wall time divided by the probe kernel's mean
    time over the pass.
    """

    def __init__(self, jobs, probed: bool = False):
        clock = time.perf_counter
        self.times: list[float] = []
        self.results: list = []
        probe = SpeedProbe()
        with probe if probed else contextlib.nullcontext():
            for job in jobs:
                n = len(probe.samples)
                t0 = clock()
                try:
                    result = job.call()
                except Exception as exc:  # a raising job counts as failed, the run goes on
                    result = exc
                self.times.append(clock() - t0 - sum(probe.samples[n:]))
                self.results.append(result)
        self.wall = sum(self.times)
        if probed:
            if not probe.samples:
                raise RuntimeError("bench: a pass ended before the speed probe ran")
            self.probe_s = statistics.fmean(probe.samples)
            self.wall_ref = self.wall / self.probe_s


def _signature(result):
    """What must repeat exactly between passes of one job."""
    if isinstance(result, Exception):
        return None
    if isinstance(result, float):
        return result
    return (result.status, result.objective, result.bound, result.node_count)


def _setup_round(name: str, seed: int):
    """Import in a fresh interpreter, build and validate the workload, run
    one untimed warm-up job; returns the workload and the three parts' times."""
    from workloads import build
    t_import = _import_seconds()
    t0 = time.perf_counter()
    workload = build(name, seed)
    t1 = time.perf_counter()
    Pass(workload.jobs[:1])
    return workload, [t_import, t1 - t0, time.perf_counter() - t1]


def _failures(jobs, passes, checker) -> list[list[str | None]]:
    """Per pass and job, a failure message or None.  The first pass is
    checked in full; later passes must reproduce its results exactly."""
    first = [checker.check(job, r) for job, r in zip(jobs, passes[0].results)]
    out = [first]
    ref = [_signature(r) for r in passes[0].results]
    for p in passes[1:]:
        out.append([f0 or (None if _signature(r) == s and s is not None else
                           "result differs from the first pass")
                    for f0, r, s in zip(first, p.results, ref)])
    return out


def _solve_figures(jobs, results) -> dict:
    """Quality and work figures of the solver jobs of one pass."""
    reps = [(j, r) for j, r in zip(jobs, results)
            if j.kind != "eval" and not isinstance(r, Exception)]
    fig = {}
    objs = [r.objective for _, r in reps if r.has_incumbent()]
    gaps = [r.gap for j, r in reps if j.kind == "quad" and r.gap is not None]
    bnb = [r for j, r in reps if j.kind in ("quad", "det")]
    qspc = [r for j, r in reps if j.kind == "qspc"]
    if objs:
        fig["objective_mean"] = statistics.fmean(objs)
    if gaps:
        fig["gap_mean"] = statistics.fmean(gaps)
    if bnb:
        fig["nodes"] = sum(r.node_count for r in bnb)
    if qspc:
        fig.update({f"qspc.{k}": sum(r.extras[k] for r in qspc) for k in _QSPC_EXTRAS})
    return fig


def _untraced(workload, args, setup_rounds) -> list[Pass]:
    """Timed passes until ``--seconds`` is used up, at least MIN_PASSES.
    Set-up rounds follow each pass, so they are spread over the run like
    the passes."""
    passes = []
    t_start = time.perf_counter()
    while True:
        t_step = time.perf_counter()
        passes.append(Pass(workload.jobs, probed=True))
        setup_rounds += [_setup_round(args.workload, args.seed)[1]
                         for _ in range(SETUP_ROUNDS_PER_PASS)]
        now = time.perf_counter()
        end = now - t_start + (now - t_step)  # if one more step ran
        if end > MAX_MEASURE_S or (len(passes) >= MIN_PASSES and end > args.seconds):
            return passes


def _median_wall_ref(passes) -> float:
    return statistics.median(p.wall_ref for p in passes)


def _best_setup_s(rounds) -> float:
    return sum(min(parts) for parts in zip(*rounds))


def _layer_figures(tracer, p: Pass, jobs) -> dict:
    """Per-layer figures of one traced pass; self time as a share of its wall."""
    layers = tracer.layers()
    fig = {}
    for span in _SPANS:
        rec = layers.get(span, {"calls": 0, "self_s": 0.0})
        fig[f"{span}.calls"] = rec["calls"]
        fig[f"{span}.self_frac"] = rec["self_s"] / p.wall
    fig.update({c: int(tracer.counts[c]) for c in _COUNTERS})
    calls = fig["price_complex.solve_cell.calls"]
    fig["price_complex.solve_cell.infeasible_frac"] = (
        fig["price_complex.solve_cell.infeasible"] / calls if calls else 0.0)
    solved = _solve_figures(jobs, p.results)
    fig.update({f"qspc.{k}": solved.get(f"qspc.{k}", 0) for k in _QSPC_EXTRAS})
    fig["job.objective_mean"] = solved.get("objective_mean", 0.0)
    fig["job.gap_mean"] = solved.get("gap_mean", 0.0)
    return fig


def _traced(workload, detail):
    """Untraced and traced passes alternately; returns (passes, per-layer values)."""
    from tracer import Tracer
    untraced, traced, figures = [], [], []
    detail["self_s"] = []
    for _ in range(TRACED_PASSES):
        untraced.append(Pass(workload.jobs, probed=True))
        with Tracer() as tracer:
            traced.append(Pass(workload.jobs, probed=True))
        figures.append(_layer_figures(tracer, traced[-1], workload.jobs))
        detail["self_s"].append({k: v["self_s"] for k, v in sorted(tracer.layers().items())})
    values = dict(figures[0])
    for span in _SPANS:
        values[f"{span}.self_frac"] = statistics.fmean(f[f"{span}.self_frac"] for f in figures)
    values["trace_overhead_frac"] = _median_wall_ref(traced) / _median_wall_ref(untraced) - 1.0
    unrepeated = {n: [f[n] for f in figures] for n in figures[0]
                  if PER_LAYER[n] == "count" and len({f[n] for f in figures}) > 1}
    if unrepeated:
        detail["unrepeated_counts"] = unrepeated
    return untraced + traced, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_package()
    from checks import Checker

    workload, t_setup = _setup_round(args.workload, args.seed)
    setup_rounds = [t_setup]
    with SpeedProbe():  # warm-up, untimed
        time.sleep(3 * PERIOD_S)
    checker = Checker()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs": len(workload.jobs), "setup_rounds_s": setup_rounds}
    if args.trace:
        passes, layer = _traced(workload, detail)
    else:
        passes = _untraced(workload, args, setup_rounds)
    seeded = Pass(workload.seeded)  # checked and reported, not gated

    failures = _failures(workload.jobs, passes, checker)
    failures.append([checker.check(j, r) for j, r in zip(workload.seeded, seeded.results)])
    job_lists = [workload.jobs] * len(passes) + [workload.seeded]
    attempted = sum(len(f) for f in failures)
    failed = sum(m is not None for f in failures for m in f)
    walls = [p.wall for p in passes]
    detail.update({
        "passes": len(passes), "pass_walls_s": walls,
        "pass_probes_s": [p.probe_s for p in passes], "failed_frac": failed / attempted,
        "failures": sorted({f"{j.label}: {m}" for jobs, f in zip(job_lists, failures)
                            for j, m in zip(jobs, f) if m})[:20],
        "det_default_tie_mismatch": sorted(checker.det_default_tie_mismatch),
        "quad_boundary_mismatch": sorted(checker.quad_boundary_mismatch),
        "environment": _environment(),
        **_solve_figures(workload.jobs, passes[0].results),
    })
    if workload.seeded:
        detail["job_s"] = {j.label: t for j, t in zip(workload.jobs, passes[0].times)}
        detail["seeded_job_s"] = {j.label: t for j, t in zip(workload.seeded, seeded.times)}
        detail["seeded"] = _solve_figures(workload.seeded, seeded.results)

    if args.trace:
        layer["job.det_default_tie_mismatch"] = len(checker.det_default_tie_mismatch)
        layer["job.quad_boundary_mismatch"] = len(checker.quad_boundary_mismatch)
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        times = [t for p in passes for t in p.times]
        if args.workload == "sweep":
            detail.update(eval_us_p50=statistics.median(times) * 1e6,
                          eval_us_p99=statistics.quantiles(times, n=100)[98] * 1e6,
                          evals_per_s=len(times) / sum(walls), eval_samples=len(times))
        values = {
            "setup_s": _best_setup_s(setup_rounds),
            "wall_ref": _median_wall_ref(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail.update(values, wall_s=statistics.median(walls),
                      probe_s=statistics.median(p.probe_s for p in passes))
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    correct = failed == 0 and "unrepeated_counts" not in detail

    units = PER_LAYER if args.trace else {**END_TO_END, **DETAIL_UNITS}
    for name, unit in units.items():
        value = metrics[name]["value"] if name in metrics else detail.get(name)
        if value is not None:
            print(f"{args.workload:9} {name:48} {value:14.6g} {unit}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
