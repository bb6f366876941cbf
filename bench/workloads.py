"""The benchmark's four fixed-work workloads.

Every job list is a function of the benchmark seed alone, and every solve
runs under a node budget, never a wall-clock limit, so a faster program does
the same work in less time and the counts repeat exactly.

A solver workload has two job lists:

* ``jobs``, the timed anchor: the generator-seed-0 ladder, plus generator
  seed 1 where one instance per size is too little work.  These are the
  instances the ROADMAP baseline table was measured on, and they include the
  quad 5/2 instance whose sixth node QP ends at the iteration cap;
* ``seeded``, the same kinds of job on instances from a generator seed drawn
  from the benchmark seed.  They run once per run after the timed passes
  and are checked like the anchor; their times are reported, not gated.

The split exists because instance cost is heavy-tailed: with the current
``subqp`` iteration cap, a fresh 6/3 ``qspc`` instance took 42 s where its
neighbours take 1 s.  A gated time that included seeded instances would vary
with the seed far more than with the program.  The sweep's cost does not
depend on the instance, so its one seeded instance is timed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import tariff_complex as tc

BETA = 0.05
QUAD_LADDER = ((3, 2), (5, 2), (8, 3), (10, 4))
QUAD_NODE_LIMIT = 10  # the 5/2 instance's iteration-cap node is its sixth
DET_LADDER = ((3, 2), (8, 3), (10, 4))
DET_NODE_LIMIT = 30
QSPC_SIZES = ((5, 2), (6, 3))
SWEEP_S, SWEEP_W = 200, 4
SWEEP_AXIS = (0, 2)  # fixed fee of contract 1: moving it keeps prices in the polytope
SWEEP_POINTS = 101
SWEEP_BETAS = (0.05, 0.5)


@dataclass
class Job:
    """One request of the closed loop: ``call()`` runs it through the
    package namespace, looked up at call time so the tracer can wrap it."""

    kind: str  # quad | det | qspc | eval
    label: str
    inst: tc.Instance
    call: Callable[[], object]
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    seeded: list[Job]


def _generator_seed(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(1_000, 2**31 - 1))


def _instance(made: list, S: int, W: int, g: int) -> tc.Instance:
    """Generate one instance and note it in ``made`` for validation."""
    inst = tc.generate(tc.GeneratorConfig(S=S, n_company_contracts=W, seed=g))
    made.append(inst)
    return inst


def _quad_jobs(made, g):
    opts = tc.SolverOptions(node_limit=QUAD_NODE_LIMIT)
    return [Job("quad", f"quad {S}/{W} g={g}", inst,
                lambda inst=inst: tc.solve_quad(inst, BETA, opts), {"beta": BETA})
            for S, W in QUAD_LADDER for inst in [_instance(made, S, W, g)]]


def _det_jobs(made, g):
    opts = tc.SolverOptions(node_limit=DET_NODE_LIMIT)
    return [Job("det", f"det {S}/{W} g={g}", inst, lambda inst=inst: tc.solve_det(inst, opts))
            for S, W in DET_LADDER for inst in [_instance(made, S, W, g)]]


def _qspc_jobs(made, g):
    opts = tc.QspcOptions(rng_seed=g)
    return [Job("qspc", f"qspc {S}/{W} g={g}", inst,
                lambda inst=inst: tc.qspc(inst, BETA, opts=opts), {"beta": BETA})
            for S, W in QSPC_SIZES for inst in [_instance(made, S, W, g)]]


def _sweep_jobs(made, g):
    """One timed request per point and model, in the order ``profit_sweep``
    evaluates them: det, then logit and quad at each beta."""
    inst = _instance(made, SWEEP_S, SWEEP_W, g)
    w, h = SWEEP_AXIS
    base = inst.polytope.midpoint()
    jobs = []
    for t in np.linspace(inst.polytope.lower[w, h], inst.polytope.upper[w, h], SWEEP_POINTS):
        x = base.copy()
        x[w, h] = t
        jobs.append(Job("eval", "det", inst, lambda x=x: tc.det_profit(inst, x),
                        {"model": "det", "x": x}))
        for b in SWEEP_BETAS:
            jobs.append(Job("eval", "logit", inst, lambda x=x, b=b: tc.logit_profit(inst, x, b),
                            {"model": "logit", "beta": b, "x": x}))
            jobs.append(Job("eval", "quad", inst, lambda x=x, b=b: tc.quad_profit(inst, x, b),
                            {"model": "quad", "beta": b, "x": x}))
    return jobs


# workload -> (job maker, anchor generator seeds; None: the timed jobs are seeded)
WORKLOADS = {
    "quad-bnb": (_quad_jobs, (0,)),
    "det-bnb": (_det_jobs, (0, 1)),
    "qspc": (_qspc_jobs, (0, 1)),
    "sweep": (_sweep_jobs, None),
}


def build(name: str, seed: int) -> Workload:
    """Generate and validate the workload's instances and job lists."""
    make, anchor = WORKLOADS[name]
    made: list[tc.Instance] = []
    g = _generator_seed(seed)
    if anchor is None:
        jobs, seeded = make(made, g), []
    else:
        jobs = [job for a in anchor for job in make(made, a)]
        seeded = make(made, g)
    for inst in made:
        problems = tc.validate(inst)
        if problems:
            raise ValueError(f"generated instance S={inst.S} W={inst.W} is invalid: {problems}")
    return Workload(name, jobs, seeded)
