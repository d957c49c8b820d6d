"""Tolerance-based feasibility solver.

Builds the phase-one tableau for ``A w = b, w >= 0``, drives it with the
numpy pivot kernel in ``_pivot``, and converts the phase-one optimum z*
into a verdict:

    z* <= tol              feasible, model re-verified by substitution
    z* >= 100 * tol        infeasible, separating certificate re-verified
    otherwise              undecided

The kernel only steers the combinatorial search.  Every number that
feeds a verdict (basic solution, objective, dual prices) is recomputed
from the original constraint data by refactorizing the final basis, and
if those clean numbers show the kernel stopped on a drifted tableau the
search resumes from a freshly built one.  A verdict is only reported
after its witness survives re-substitution; any failure there degrades
the answer to undecided rather than trusting solver state.
"""

from __future__ import annotations

import math

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
from ._pivot import ITERATION_LIMIT, OPTIMAL, STALLED

BACKEND = "numpy"

DEFAULT_TOL = 1e-9
UNDECIDED_FACTOR = 100.0
# pivots smaller than this amplify roundoff faster than they make progress
PIVOT_EPS = 1e-8
MAX_RESTARTS = 6


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


def _tableau_for_basis(a_pos: np.ndarray, b_pos: np.ndarray, basis: np.ndarray):
    """Fresh phase-one tableau for the given basis, priced from scratch."""
    m, n = a_pos.shape
    full = np.hstack([a_pos, np.eye(m), b_pos[:, None]])
    if np.array_equal(basis, np.arange(n, n + m)):
        body = full  # the all-artificial basis is the identity
    else:
        try:
            body = np.linalg.solve(full[:, basis], full)
        except np.linalg.LinAlgError:
            return None
    cost = np.zeros(n + m + 1)
    cost[n : n + m] = 1.0
    t = np.empty((m + 1, n + m + 1))
    t[:m] = body
    t[m] = cost - cost[basis] @ body
    return np.ascontiguousarray(t)


def _clean_solution(a_pos: np.ndarray, b_pos: np.ndarray, basis: np.ndarray):
    """(x_B, z, y, min structural reduced cost) from the original data."""
    m, n = a_pos.shape
    full = np.hstack([a_pos, np.eye(m)])
    bmat = full[:, basis]
    try:
        xb = np.linalg.solve(bmat, b_pos)
        cb = (basis >= n).astype(float)
        y = np.linalg.solve(bmat.T, cb)
    except np.linalg.LinAlgError:
        return None
    z = float(cb @ xb)
    rc_min = float((-(y @ a_pos)).min()) if n else 0.0
    return xb, max(z, 0.0), y, rc_min


def phase_one(a_pos: np.ndarray, b_pos: np.ndarray, tol: float, max_iter: int | None = None):
    """Float phase one on ``A_pos w = b_pos`` (b_pos >= 0), restarted on drift.

    Runs the kernel from the all-artificial basis.  When the refactorized
    final basis still has an improving column, the search resumes from a
    fresh tableau for that basis, at most MAX_RESTARTS times.  Returns
    (status, basis, clean, pivots, restarts): ``clean`` is the
    ``_clean_solution`` tuple of the final basis, or None when a basis
    turned out singular.
    """
    m, n = a_pos.shape
    eps_pivot = max(tol, PIVOT_EPS)
    if max_iter is None:
        max_iter = 1000 + 50 * m + 2 * n
    basis = np.arange(n, n + m, dtype=np.intp)
    status, clean, pivots, restarts = OPTIMAL, None, 0, 0
    for attempt in range(MAX_RESTARTS + 1):
        t = _tableau_for_basis(a_pos, b_pos, basis)
        if t is None:
            return status, basis, None, pivots, restarts
        status, done = _pivot.run_phase1(t, basis, n, tol, eps_pivot, max_iter)
        pivots += done
        restarts = attempt
        clean = _clean_solution(a_pos, b_pos, basis)
        if clean is None:
            break
        if status == OPTIMAL and (clean[3] >= -10.0 * tol or clean[1] <= tol):
            break
        if status == STALLED and done == 0:
            break  # a fresh tableau changed nothing; restarting cannot help
    return status, basis, clean, pivots, restarts


def solve_feasibility_float(
    problem: FeasibilityProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> FeasibilityVerdict:
    if not (math.isfinite(tol) and tol > 0.0):
        raise InputError(f"tolerance must be a positive finite number, got {tol}")

    a = np.asarray(problem.a, dtype=np.float64)
    b = np.asarray(problem.b, dtype=np.float64)
    if a.ndim != 2:
        a = a.reshape(len(b), -1)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InputError("constraint data contains non-finite entries")
    m, n = a.shape

    sign = np.where(b < 0.0, -1.0, 1.0)
    a_pos = a * sign[:, None]
    b_pos = b * sign
    status, basis, clean, pivots, restarts = phase_one(a_pos, b_pos, tol, max_iter)
    meta = {"mode": "float", "tol": tol, "pivots": pivots, "restarts": restarts}
    if clean is None:
        return FeasibilityVerdict(
            UNDECIDED, gap=(float("nan"),) * 2, meta={**meta, "reason": "singular basis"}
        )
    xb, z, y, rc_min = clean
    meta["z"] = z

    if status == ITERATION_LIMIT:
        return FeasibilityVerdict(UNDECIDED, gap=(z, z), meta={**meta, "reason": "iteration limit"})

    if z <= tol:
        w = np.zeros(n)
        for i in range(m):
            if basis[i] < n:
                w[basis[i]] = xb[i]
        if w.min(initial=0.0) < -UNDECIDED_FACTOR * tol:
            return FeasibilityVerdict(
                UNDECIDED, gap=(z, z), meta={**meta, "reason": "negative basic value"}
            )
        w = np.clip(w, 0.0, None)
        res = residual_inf(a, b, w)
        meta["residual"] = res
        if res > UNDECIDED_FACTOR * tol * max(1.0, float(np.abs(b).max(initial=0.0))):
            return FeasibilityVerdict(
                UNDECIDED, gap=(z, z), meta={**meta, "reason": "model failed re-verification"}
            )
        return FeasibilityVerdict(FEASIBLE, model=w, meta=meta)

    if status == STALLED:
        return FeasibilityVerdict(UNDECIDED, gap=(z, z), meta={**meta, "reason": "no admissible pivot"})

    if z >= UNDECIDED_FACTOR * tol and rc_min >= -10.0 * tol:
        # positive objective with no improving column: y prices a Farkas
        # split; undo the row flips to certify the original system
        c = -(y * sign)
        scale = float(np.abs(c).max(initial=0.0))
        if scale > 0.0:
            c = c / scale
        viol, margin = certificate_quality(a, b, c)
        meta["cert_violation"] = viol
        meta["cert_margin"] = margin
        if margin > max(10.0 * viol, tol):
            return FeasibilityVerdict(INFEASIBLE, certificate=c, meta=meta)
        return FeasibilityVerdict(
            UNDECIDED, gap=(z, z), meta={**meta, "reason": "certificate failed re-verification"}
        )

    return FeasibilityVerdict(UNDECIDED, gap=(z, z), meta=meta)
