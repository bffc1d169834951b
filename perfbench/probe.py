"""A fixed unit of work that measures how fast the host runs right now.

The shared host this benchmark was tuned on changes speed by up to 50% in
phases lasting seconds to minutes, and CPU time moves with it.  So every
measured time is taken between probe units and scaled by

    REFERENCE_MS / (CPU time of the probe units next to it)

which gives the time the measured code would have taken at the speed at
which one probe unit takes REFERENCE_MS.  The probe does the kinds of work
polycomp does: numpy calls on small arrays (reductions, stacking, solve,
eigvalsh, det and svd), small LPs through scipy's HiGHS, and plain Python
loops.  It does not import polycomp, so a change to polycomp moves the
measured times and leaves the probe alone.
"""

from __future__ import annotations

import statistics
from time import process_time

import numpy as np
from scipy.optimize import linprog

# CPU time of one unit on the 2-core Xeon VM the benchmark was tuned on, in a
# fast phase.  Only the scale of the reported times depends on it.
REFERENCE_MS = 5.5

_RNG = np.random.default_rng(20250623)
_POINTS = _RNG.standard_normal((16, 4))
_FACES = [sorted(_RNG.choice(16, size=4, replace=False).tolist()) for _ in range(48)]
_LP_A = np.vstack([_RNG.standard_normal((24, 2)), np.eye(2), -np.eye(2)])
_LP_B = np.concatenate([np.abs(_RNG.standard_normal(24)) + 1.0, np.full(4, 10.0)])


def _work() -> float:
    total = 0.0
    for face in _FACES:
        centre = _POINTS[face].mean(axis=0)
        frame = np.vstack([_POINTS[face[1:]] - centre, np.ones(4)])
        gram = frame @ frame.T
        total += float(np.linalg.solve(gram + 4.0 * np.eye(4), centre).sum())
        total += float(np.linalg.eigvalsh(gram)[-1]) + float(np.linalg.det(frame))
        total += float(np.linalg.svd(frame, compute_uv=False)[0])
        total += sum(k * 0.5 for k in face) + len({k: k for k in range(12)})
    for c in ((1.0, 0.3), (-0.4, 1.0)):
        total += linprog(c, A_ub=_LP_A, b_ub=_LP_B, bounds=(None, None), method="highs").fun
    return total


def unit() -> float:
    """CPU seconds of one probe unit."""
    start = process_time()
    _work()
    return process_time() - start


def speed(samples) -> float:
    """Scale factor from the CPU times of the probe units around a measurement."""
    return REFERENCE_MS / (1e3 * statistics.median(samples))
