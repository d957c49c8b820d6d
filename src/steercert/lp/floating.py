"""Float feasibility solver: a report of the kernel's final basis.

Runs the revised phase-one kernel in ``_pivot`` on ``A w = b, w >= 0``
and reports the basis it ends at, with one fixed tolerance TOL on the
phase-one optimum z*:

    z* <= TOL      feasible, with the basic solution clipped at 0
    z* > TOL       infeasible, with the Farkas candidate -y / max|y|
                   of the optimal basis's dual prices y

and undecided only when the kernel has no numbers to report: a singular
basis, the iteration limit, or no admissible pivot.  The solver does not
judge its own witness.  The model is only as good as the final basis's
factorization, and the certificate -y / max|y| is nonnegative on the
columns only up to the kernel's stopping test, reduced costs >= -TOL.
Its caller checks either on its own terms: the engine rebuilds a model
within ``MODEL_TOL`` and shifts a certificate onto its admissible set
before checking it exactly in integers.

The kernel updates the basis inverse by each pivot's rank-one step and
factorizes it afresh from the original constraint data every
``_pivot.REFACTOR`` pivots and whenever its numbers would leave the
kernel, so the numbers reported (basic solution, objective, dual
prices) come from a fresh factorization of its final basis, with
nothing to restart.
A caller that solves a run of LPs on the same rows and right-hand side,
each adding columns after those of the one before, can start each from
the final basis of the one before (``basis``, pivoted in place), with
its artificial indices moved past the new columns: that basis is still
primal feasible, so only the new columns have to be priced in.

A caller that can judge a certificate on its own terms passes
``separate``: the kernel then offers it, at bases where z + rc_min > 0,
the Farkas candidate -y / max|y| of the current dual prices, from a
fresh factorization.  ``separate`` returns a certificate it vouches
for, or None.  One it returns ends the solve there: the verdict is
Infeasible with that certificate, its ``z`` is the phase one objective
where the kernel stopped, and ``meta["early_stop"]`` is True.  After a
declined candidate the kernel pivots on from the factorization that
priced it, so a solve with ``separate`` may part from one without it
by roundoff only.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputError
from .problem import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    FeasibilityProblem,
    FeasibilityVerdict,
)
from . import _pivot
from ._pivot import ITERATION_LIMIT, SEPARATED, STALLED, TOL

# nothing in the package reads it; the benchmark harness records it
BACKEND = "numpy"


def _farkas(y: np.ndarray) -> np.ndarray:
    """The Farkas candidate -y, scaled to largest entry 1."""
    c = -y
    scale = float(np.abs(c).max(initial=0.0))
    return c / scale if scale > 0.0 else c


def phase_one(a: np.ndarray, b: np.ndarray, separate=None, basis=None):
    """Float phase one on ``A w = b, w >= 0`` from ``basis``.

    Rows with b_i < 0 are negated so that the all-artificial basis is
    feasible, and the kernel runs on the one matrix [A_pos | I] built
    here, whose column n + i is row i's artificial.  ``basis`` None
    starts from the all-artificial basis.  Otherwise it is a length-m
    int array of columns of [A_pos | I] whose basic solution is
    nonnegative, such as the final basis of an earlier solve on the same
    rows and right-hand side, and the kernel pivots it in place, so the
    caller sees the final basis in it.  Returns (status, basis, clean,
    pivots): ``clean`` is the final basis's (x_B, z, y) with y pricing
    the rows of A as given, or None when a basis turned out singular.
    ``separate``, if given, is the kernel's stopping test, called with y
    signed the same way.  The kernel stops after 1000 + 50 m + 2 n
    pivots on an m x n problem.
    """
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    full = np.zeros((m, n + m))
    np.multiply(a, sign[:, None], out=full[:, :n])
    full[:, n:] = np.eye(m)
    cost = np.zeros(n + m)
    cost[n:] = 1.0
    if basis is None:
        basis = np.arange(n, n + m, dtype=np.intp)
    test = None if separate is None else lambda y: separate(y * sign)
    status, pivots, clean = _pivot.run_phase1(full, b * sign, cost, basis, 1000 + 50 * m + 2 * n, separate=test)
    if clean is not None:
        xb, z, y = clean
        clean = xb, max(z, 0.0), y * sign
    return status, basis, clean, pivots


def solve_feasibility_float(problem: FeasibilityProblem, separate=None, basis=None) -> FeasibilityVerdict:
    """The verdict of ``phase_one`` on ``problem``, started from ``basis``
    (None: the all-artificial basis), which it pivots in place."""
    a = np.asarray(problem.a, dtype=np.float64)
    b = np.asarray(problem.b, dtype=np.float64)
    if a.ndim != 2:
        a = a.reshape(len(b), problem.num_vars)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InputError("constraint data contains non-finite entries")

    accepted = []  # the certificate that stopped the kernel

    def stop(y):
        cert = separate(_farkas(y))
        if cert is not None:
            accepted.append(cert)
        return cert is not None

    status, basis, clean, pivots = phase_one(a, b, None if separate is None else stop, basis)
    meta = {"mode": "float", "pivots": pivots, "early_stop": status == SEPARATED}
    if clean is None:
        return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "singular basis"})
    xb, z, y = clean
    meta["z"] = z
    if status == SEPARATED:
        return FeasibilityVerdict(INFEASIBLE, certificate=accepted[0], meta=meta)
    if status == ITERATION_LIMIT:
        return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "iteration limit"})
    if z <= TOL:
        w = np.zeros(a.shape[1])
        structural = basis < len(w)
        w[basis[structural]] = np.clip(xb[structural], 0.0, None)
        return FeasibilityVerdict(FEASIBLE, model=w, meta=meta)
    if status == STALLED:
        return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "no admissible pivot"})
    return FeasibilityVerdict(INFEASIBLE, certificate=_farkas(y), meta=meta)
