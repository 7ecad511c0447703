"""Host-speed yardstick: a frozen numpy-only stand-in for a workload's trials.

The benchmark runs on a shared VM whose CPU speed changes by up to 60%
within seconds and stays changed for up to minutes, as other tenants come
and go.  Raw wall times of whole runs then spread by 20-50% between runs of
the same code.  The yardstick runs a fixed amount of work shaped like the
workload's trials (the same per-trial stream construction, draws of the
same size, a factorization of the same shape, a stable sort, and as many
rank objectives as the workload evaluates per trial) right before and
after every timed item.  Dividing the item's time by the yardstick's speed
factor at that moment leaves the cost of the code at the reference speed,
which changes only when the code does.

The yardstick never imports ``rrtls``, so no change to the program can
move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class Yardstick:
    """Times ``reps`` stand-in trials; the speed factor is that time over
    ``reference_s``: 1 at the reference speed, above 1 on a slower host."""

    def __init__(self, N: int, p: int, errors_in_variables: bool, objectives: int,
                 reps: int, reference_s: float):
        rng = np.random.default_rng(0)
        self.H = rng.standard_normal((N, p))
        self.U = np.linalg.qr(self.H)[0]
        self.eiv = errors_in_variables
        self.objectives = objectives
        self.reps = reps
        self.reference_s = reference_s
        self.last = self._time()

    def _trial(self, t: int) -> int:
        rng = np.random.default_rng(np.random.SeedSequence([0, t]))
        y = rng.standard_normal(self.H.shape[0])
        U = self.U
        if self.eiv:
            A = np.hstack([self.H + rng.standard_normal(self.H.shape), y[:, None]])
            U = np.linalg.svd(A, full_matrices=False)[0][:, :-1]
        c = U.T @ y
        scores = c * c
        order = np.argsort(-scores, kind="stable")
        tails = np.cumsum(scores[order][::-1])[::-1]
        ranks = np.arange(1, scores.shape[0] + 1)
        return sum(int(np.argmin((tails + k * ranks) / (1.0 + k)))
                   for k in range(self.objectives))

    def _time(self) -> float:
        t0 = perf_counter()
        for t in range(self.reps):
            self._trial(t)
        return perf_counter() - t0

    def around(self, measure):
        """Run ``measure()`` between two yardstick runs; returns its result
        and the host's speed factor over that stretch of time."""
        before = self.last
        result = measure()
        self.last = self._time()
        return result, (before + self.last) / (2.0 * self.reference_s)
