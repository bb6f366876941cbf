"""Quality ladder for the qspc search: 15 generated instances, one run each.

Sizes 5/2, 8/3, 10/4, 15/4 and 20/4 (segments/contracts) at generator seeds
0-2, beta = 0.05, ``QspcOptions(rng_seed=0, time_limit_s=120)``.  Prints one
row per job (objective, wall time and ``extras["root_bound"]``, "-" where
the report has none) and the total time and mean objective.

    PYTHONPATH=src python scripts/qspc_ladder.py

Set ``OPENBLAS_NUM_THREADS=1`` to time single-threaded BLAS.
"""

from __future__ import annotations

import time

import numpy as np

import tariff_complex as tc

SIZES = ((5, 2), (8, 3), (10, 4), (15, 4), (20, 4))
SEEDS = (0, 1, 2)
BETA = 0.05


def main() -> None:
    opts = tc.QspcOptions(rng_seed=0, time_limit_s=120.0)
    objectives, total = [], 0.0
    print(f"{'S/W':>5} {'g':>2} {'objective':>12} {'time_s':>8} {'root_bound':>12}")
    for S, W in SIZES:
        for g in SEEDS:
            inst = tc.generate(tc.GeneratorConfig(S=S, n_company_contracts=W, seed=g))
            t0 = time.perf_counter()
            rep = tc.qspc(inst, BETA, opts=opts)
            wall = time.perf_counter() - t0
            bound = rep.extras.get("root_bound")
            shown = "-" if bound is None else f"{bound:.3f}"
            print(f"{S:>2}/{W:<2} {g:>2} {rep.objective:>12.3f} {wall:>8.2f} {shown:>12}",
                  flush=True)
            objectives.append(rep.objective)
            total += wall
    print(f"total {total:.1f} s, mean objective {np.mean(objectives):.2f}")


if __name__ == "__main__":
    main()
