"""Tolerance-based feasibility solver.

Runs the revised phase-one kernel in ``_pivot`` on ``A w = b, w >= 0``
and converts the phase-one optimum z* into a verdict, with one fixed
tolerance TOL:

    z* <= TOL              feasible, model re-verified by substitution
    z* >= 100 * TOL        infeasible, separating certificate re-verified
    otherwise              undecided

TOL is a constant, not a setting: the engine checks every witness
again on its own terms, so a looser band would only turn decided
verdicts into undecided ones.

The kernel updates the basis inverse by each pivot's rank-one step,
factorizes it afresh from the original constraint data every
``_pivot.REFACTOR`` pivots, and always does so before it returns, so
the numbers that feed a verdict (basic solution, objective, dual
prices) come from a fresh factorization of its final basis, with
nothing to restart.  A verdict is only reported after its witness
survives re-substitution; any failure there degrades the answer to
undecided rather than trusting solver state.

A caller that can judge a certificate on its own terms passes
``separate``: the kernel then offers it, at bases where z + rc_min > 0,
the Farkas candidate -y / max|y| of the current dual prices, from a
fresh factorization.  ``separate`` returns a certificate it vouches
for, or None.  One that also passes ``certificate_quality`` on the
problem ends the solve there: the verdict is Infeasible with that
certificate, its ``z`` is the phase one objective where the kernel
stopped, and ``meta["early_stop"]`` is True.  A declined candidate
leaves the pivots exactly as they are without ``separate``.
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

UNDECIDED_FACTOR = 100.0


def residual_inf(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """Max absolute violation of A w = b."""
    return float(np.max(np.abs(a @ w - b))) if len(b) else 0.0


def certificate_quality(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """(violation, margin) for a separating c: want c.A >= 0 and c.b < 0.

    violation is how far below zero c.A dips; margin is -c.b.  The
    certificate is convincing when the margin dominates the violation.
    """
    ca = c @ a
    viol = float(max(0.0, -ca.min())) if ca.size else 0.0
    return viol, float(-(c @ b))


def _convincing(viol: float, margin: float) -> bool:
    return margin > max(10.0 * viol, TOL)


def _farkas(y: np.ndarray) -> np.ndarray:
    """The Farkas candidate -y, scaled to largest entry 1."""
    c = -y
    scale = float(np.abs(c).max(initial=0.0))
    return c / scale if scale > 0.0 else c


def phase_one(a: np.ndarray, b: np.ndarray, separate=None):
    """Float phase one on ``A w = b, w >= 0`` from the all-artificial basis.

    Rows with b_i < 0 are negated so that start is feasible, and the
    kernel runs on the one matrix [A_pos | I] built here.  Returns
    (status, basis, clean, pivots): ``clean`` is the final basis's
    (x_B, z, y, rc_min) with y pricing the rows of A as given, or None
    when a basis turned out singular.  ``separate``, if given, is the
    kernel's stopping test, called with y signed the same way.  The
    kernel stops after 1000 + 50 m + 2 n pivots on an m x n problem.
    """
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    full = np.zeros((m, n + m))
    np.multiply(a, sign[:, None], out=full[:, :n])
    full[:, n:] = np.eye(m)
    cost = np.zeros(n + m)
    cost[n:] = 1.0
    basis = np.arange(n, n + m, dtype=np.intp)
    test = None if separate is None else lambda y: separate(y * sign)
    status, pivots, clean = _pivot.run_phase1(full, b * sign, cost, basis, 1000 + 50 * m + 2 * n, separate=test)
    if clean is not None:
        xb, z, y, rc_min = clean
        clean = xb, max(z, 0.0), y * sign, rc_min
    return status, basis, clean, pivots


def solve_feasibility_float(problem: FeasibilityProblem, separate=None) -> FeasibilityVerdict:
    a = np.asarray(problem.a, dtype=np.float64)
    b = np.asarray(problem.b, dtype=np.float64)
    if a.ndim != 2:
        a = a.reshape(len(b), problem.num_vars)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InputError("constraint data contains non-finite entries")
    m, n = a.shape

    accepted = []  # (certificate, violation, margin) that stopped the kernel

    def stop(y):
        cert = separate(_farkas(y))
        if cert is None:
            return False
        quality = certificate_quality(a, b, cert)
        if not _convincing(*quality):
            return False
        accepted.append((cert, *quality))
        return True

    status, basis, clean, pivots = phase_one(a, b, None if separate is None else stop)
    meta = {"mode": "float", "pivots": pivots, "early_stop": status == SEPARATED}
    if clean is None:
        return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "singular basis"})
    xb, z, y, rc_min = clean
    meta["z"] = z

    if status == SEPARATED:
        c, meta["cert_violation"], meta["cert_margin"] = accepted[0]
        return FeasibilityVerdict(INFEASIBLE, certificate=c, meta=meta)

    if status == ITERATION_LIMIT:
        return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "iteration limit"})

    if z <= TOL:
        w = np.zeros(n)
        for i in range(m):
            if basis[i] < n:
                w[basis[i]] = xb[i]
        if w.min(initial=0.0) < -UNDECIDED_FACTOR * TOL:
            return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "negative basic value"})
        w = np.clip(w, 0.0, None)
        res = residual_inf(a, b, w)
        meta["residual"] = res
        if res > UNDECIDED_FACTOR * TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "model failed re-verification"})
        return FeasibilityVerdict(FEASIBLE, model=w, meta=meta)

    if status == STALLED:
        return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "no admissible pivot"})

    if z >= UNDECIDED_FACTOR * TOL and rc_min >= -10.0 * TOL:
        # positive objective with no improving column: y prices a Farkas split
        c = _farkas(y)
        viol, margin = certificate_quality(a, b, c)
        meta["cert_violation"] = viol
        meta["cert_margin"] = margin
        if _convincing(viol, margin):
            return FeasibilityVerdict(INFEASIBLE, certificate=c, meta=meta)
        return FeasibilityVerdict(UNDECIDED, meta={**meta, "reason": "certificate failed re-verification"})

    return FeasibilityVerdict(UNDECIDED, meta=meta)
