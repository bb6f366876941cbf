"""The host-speed probe that ``wall_ref`` is measured in.

On a shared 2-core VM the same pass of a workload was seen to take from
4.9 s to 10.5 s.  The host flips between a fast and a slow state every few
seconds, in proportions that drift over minutes, and CPU time moves with
wall time, so neither a minimum nor a median over a run's passes gives
seconds that repeat from run to run.

While a :class:`SpeedProbe` is active, an interval timer interrupts the
benchmark every ``PERIOD_S`` and the signal handler runs a fixed kernel of
about 1 ms: a small SVD and least-squares solve and a loop of small dot
products, the kinds of work the solvers do.  Each run of the kernel is
timed, so the probe samples the host's speed all through a pass, also
inside a single long job.  The kernel's inputs are fixed and it shares no
code with ``tariff_complex``, so a change to the package cannot change it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05

_RNG = np.random.default_rng(20211006)
_A = _RNG.standard_normal((40, 40))
_B = _RNG.standard_normal((40, 20))


def _kernel() -> float:
    s = np.linalg.svd(_A, compute_uv=False)
    x = np.linalg.lstsq(_B, _A[:, 0], rcond=None)[0]
    acc = float(s[0] + x[0])
    for j in range(30):
        y = _A[j] @ _B[:, j % 20]
        if y > 0:
            acc += float(y)
    return acc


class SpeedProbe:
    """Times the kernel every ``PERIOD_S`` while the ``with`` block runs.

    ``samples`` holds each kernel run's duration in seconds.  The handler
    runs in the main thread between two bytecodes of whatever is running,
    so its time is inside the caller's own timings; the caller subtracts it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
