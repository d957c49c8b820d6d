"""Exact feasibility solver for integer data.

The same phase-one question as the float path, decided exactly, for a
problem whose entries are all Python ints; any other entry is an
``InputError``.  First ``floating.phase_one`` runs on a float64 copy
of the data, and the x_B and y of its final basis are rounded to exact
rationals by Cramer's rule: the basis matrix B is an integer matrix, so
d = |det B| is a common denominator of B^-1, and d x_B and d y are the
integer vectors to round to (see ``_round_witness``).  When every
artificial rounds to zero the basic solution is checked as a model;
otherwise y must solve B^T y = c_B exactly and is checked as a
separating certificate.  On box-world LPs, whose matrices are 0/1, the
check passes as a rule and no elimination runs.

When it fails (the float basis is singular or not optimal, the rounding
is wrong, or the data leave float64 range), one revised simplex loop
under Bland's rule decides in ``fractions.Fraction`` arithmetic.  Each
iteration prices its basis B from the original data by integer
Gauss-Jordan: with z = c_B.x_B == 0 the basic solution is a model;
otherwise B^T y = c_B gives a candidate certificate, returned when it
separates b from every column, and else the lowest-index improving
column enters.  The loop starts from the float basis when B x_B = b has
an exact solution with x_B >= 0, and from the all-artificial basis
when that basis is singular, has a negative basic value, or there is no
float run.  Bland's rule cannot cycle, so exact mode terminates and
never answers undecided.  Every witness is checked by exact
substitution; a rounded one that fails is a bad guess, while a failed
check in the loop is an internal bug, not an input property.

Every check runs in integers: a rounded witness is checked as the
integer vector d x_B or d y before any Fraction is formed, and A w and
c.A are summed with w and c scaled by a common denominator.  Models and
certificates are returned as Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .. import linalg
from ..errors import InputError, InternalCheckError
from . import floating
from .problem import FEASIBLE, INFEASIBLE, FeasibilityProblem, FeasibilityVerdict

# Bland's rule cannot cycle, so this only guards against a logic bug.
_MAX_PIVOTS = 2_000_000
_ZERO = Fraction(0)


def _solve(mat, rhs):
    """The exact x with mat x = rhs, or None if the square mat is singular.

    Gauss-Jordan on the integer rows [mat_i | rhs_i]: eliminating column
    k with pivot row p replaces row r by (p_k r - r_k p) / g for the gcd g
    of its entries.  Rows with a zero in column k are left alone, and only
    the nonzero columns of p are visited.  No Fraction is formed until
    x_k = rhs_k / diag_k.
    """
    m = len(rhs)
    rows = [[*row, r] for row, r in zip(mat, rhs)]
    for k in range(m):
        candidates = [i for i in range(k, m) if rows[i][k]]
        if not candidates:
            return None
        piv = min(candidates, key=lambda i: abs(rows[i][k]))
        rows[k], rows[piv] = rows[piv], rows[k]
        prow = rows[k]
        p = prow[k]
        nz = [j for j in range(k, m + 1) if prow[j]]
        for i in range(m):
            row = rows[i]
            f = row[k]
            if i == k or not f:
                continue
            g = math.gcd(p, f)
            pf, ff = p // g, f // g
            if pf != 1:
                row = [pf * v for v in row]
            for j in nz:
                row[j] -= ff * prow[j]
            g = math.gcd(*row)
            if g > 1:
                row = [v // g for v in row]
            rows[i] = row
    return [Fraction(rows[k][m], rows[k][k]) for k in range(m)]


def _model(a, b, n, basis, nums, den):
    """w with w[basis[i]] = nums[i] / den (structural columns only) if it
    satisfies w >= 0 and A w = b exactly, else None.

    ``nums`` are integers and den > 0, and A w = b is tested as
    A (den w) = den b, so the sums stay in integers wherever ``a`` and
    ``b`` do; the Fractions of w are formed only once it passes.
    """
    support = [(col, v) for col, v in zip(basis, nums) if col < n and v]
    if any(v < 0 for _, v in support):
        return None
    for row, bi in zip(a, b):
        if sum(row[j] * v for j, v in support if row[j]) != bi * den:
            return None
    w = [_ZERO] * n
    for j, v in support:
        w[j] = Fraction(v, den)
    return w


def _column_products(cert, a, n) -> list:
    """D * cert.A_j for each of the n columns of the integer rows ``a``,
    where D > 0 is the least common denominator of the rational cert
    (``linalg.scaled_ints``): exactly the signs of cert.A, summed in
    integers over D * c_i.
    """
    if not n:
        return []
    ca = [0] * n
    for c, row in zip(linalg.scaled_ints(cert)[0], a):
        if c:
            for j, v in enumerate(row):
                if v:
                    ca[j] += c * v
    return ca


def separates(cert, a, b, n) -> bool:
    """True when cert.A >= 0 and cert.b < 0 hold exactly for the n columns
    of the integer rows ``a`` and the rational cert."""
    if any(v < 0 for v in _column_products(cert, a, n)):
        return False
    return sum(c * bi for c, bi in zip(cert, b)) < 0


def _float_basis(a_pos, b_pos, n):
    """(a_f, basis, clean, pivots) from the float kernel, or None when the
    data leave float64 range.

    a_f is A_pos in float64, and ``clean`` the kernel's (x_B, z, y) for
    its final basis, y pricing the rows of A_pos, or None when a basis
    turned out singular.  All of it is confirmed exactly before use, so
    overflow or NaN inside the float search (entries near the float64
    limit) merely makes a worse guess and is not reported.
    """
    try:
        a_f = np.array(a_pos, dtype=np.float64).reshape(len(b_pos), n)
        b_f = np.array(b_pos, dtype=np.float64)
    except OverflowError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        _, basis, clean, pivots = floating.phase_one(a_f, b_f)
    return a_f, [int(j) for j in basis], clean, pivots


def _round_witness(a, b, n, sign, a_pos, b_pos, a_f, basis, clean):
    """The verdict that the float kernel's numbers for ``basis`` round to,
    or None when they do not round to a witness that checks exactly.

    Cramer's rule bounds every denominator.  The basis matrix
    B = [A_pos | I][:, basis] is an integer matrix, so for d = |det B|,
    d B^-1 is one too (plus or minus the adjugate of B), and so are
    d x_B = d B^-1 b and d y = c_B d B^-1.  Both are rounded from the
    kernel's x_B and y, and d from a float LU of B.  If every artificial
    rounds to 0, x_B proposes a model, checked by ``_model``; otherwise
    y proposes a certificate, which must solve B^T y = c_B exactly (so
    that z = y.b_pos is this basis's objective) and separate.  Both
    checks run on those integer vectors.  A wrong rounding is a bad
    guess, not a bug, and gives None.
    """
    xb_f, _, y_f = clean
    with np.errstate(over="ignore", invalid="ignore"):
        det = abs(np.linalg.det(np.hstack((a_f, np.eye(len(basis))))[:, basis]))
        if not math.isfinite(det) or det < 0.5:
            return None
        d = round(det)
        xb = np.rint(xb_f * float(d))
        ys = np.rint(y_f * float(d))
    if not (np.isfinite(xb).all() and np.isfinite(ys).all()):
        return None
    if not any(v for v, j in zip(xb, basis) if j >= n):
        w = _model(a, b, n, basis, [int(v) for v in xb], d)
        return None if w is None else FeasibilityVerdict(FEASIBLE, model=w, meta={"z": _ZERO})
    ys = [int(v) for v in ys]  # d * y
    for j in basis:
        if j >= n:
            if ys[j - n] != d:
                return None
        elif sum(yi * row[j] for yi, row in zip(ys, a_pos) if yi and row[j]):
            return None
    cert = [-s * yi for s, yi in zip(sign, ys)]  # d * the certificate
    if not separates(cert, a, b, n):
        return None
    z = sum(yi * bi for yi, bi in zip(ys, b_pos))
    return FeasibilityVerdict(INFEASIBLE, certificate=[Fraction(c, d) for c in cert], meta={"z": Fraction(z, d)})


def _basis_matrix(a_pos, n, basis):
    """B = [A_pos | I][:, basis] as rows."""
    return [[row[j] if j < n else int(j - n == i) for j in basis] for i, row in enumerate(a_pos)]


def _phase_one(a, b, n, sign, a_pos, b_pos, basis, xb):
    """Revised phase one under Bland's rule from ``basis``, whose basic
    solution ``xb`` is nonnegative.

    With z = c_B.x_B == 0 the basis is a model.  Otherwise each iteration
    solves B^T y = c_B for B = [A_pos | I][:, basis], built afresh from
    the data, and c = -(y * sign) is a certificate when c.A >= 0.  Else
    the lowest-index column with c.A_j < 0 enters, the ratio test on
    B d = A_j removes the row with the smallest x_i / d_i, ties going to
    the lowest basic index, and x_B takes that exact step along d.
    Returns (verdict, pivots); the witness is re-checked, and a failed
    check raises.
    """
    m = len(b_pos)
    pivots = 0
    while True:
        z = sum((v for v, j in zip(xb, basis) if j >= n), Fraction(0))
        if z == 0:
            w = _model(a, b, n, basis, *linalg.scaled_ints(xb))
            if w is None:
                raise InternalCheckError("exact model failed re-substitution")
            return FeasibilityVerdict(FEASIBLE, model=w, meta={"z": z}), pivots
        mat = _basis_matrix(a_pos, n, basis)
        y = _solve([list(col) for col in zip(*mat)], [int(j >= n) for j in basis])
        cert = [-(yk * s) for yk, s in zip(y, sign)]
        ca = _column_products(cert, a, n)
        entering = next((j for j in range(n) if ca[j] < 0), -1)
        if entering < 0:
            if sum(c * bi for c, bi in zip(cert, b)) >= 0:
                raise InternalCheckError("exact certificate failed re-substitution")
            return FeasibilityVerdict(INFEASIBLE, certificate=cert, meta={"z": z}), pivots
        d = _solve(mat, [row[entering] for row in a_pos])
        leave = -1
        for i in range(m):
            if d[i] > 0:
                ratio = xb[i] / d[i]
                if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            raise InternalCheckError("phase one claims an unbounded artificial objective")
        xb = [best if i == leave else v - best * di for i, (v, di) in enumerate(zip(xb, d))]
        basis[leave] = entering
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise InternalCheckError("pivot budget exhausted under an anti-cycling rule")


def solve_feasibility_exact(problem: FeasibilityProblem) -> FeasibilityVerdict:
    a, b, n = list(problem.a), list(problem.b), problem.num_vars
    for row in (b, *a):
        if not {*map(type, row)} <= {int}:
            bad = next(v for v in row if type(v) is not int)
            raise InputError(f"exact mode takes Python ints only, got {type(bad).__name__} {bad!r}")
    sign = [-1 if bi < 0 else 1 for bi in b]
    a_pos = [row if s > 0 else [-v for v in row] for s, row in zip(sign, a)]
    b_pos = [s * bi for s, bi in zip(sign, b)]

    guess = _float_basis(a_pos, b_pos, n)
    fallback, float_pivots, verdict = "float overflow", 0, None
    if guess is not None:
        a_f, basis, clean, float_pivots = guess
        fallback = None
        if clean is not None:
            verdict = _round_witness(a, b, n, sign, a_pos, b_pos, a_f, basis, clean)
        if verdict is None:
            xb = _solve(_basis_matrix(a_pos, n, basis), b_pos)
            if xb is None:
                fallback = "singular basis"
            elif any(v < 0 for v in xb):
                fallback = "negative basic value"
    rounded, bland_pivots = verdict is not None, 0
    if not rounded:
        if fallback:
            basis, xb = list(range(n, n + len(b))), b_pos
        verdict, bland_pivots = _phase_one(a, b, n, sign, a_pos, b_pos, basis, xb)
        if bland_pivots and fallback is None:
            fallback = "certificate check"
    return verdict.with_meta(
        mode="exact",
        pivots=float_pivots + bland_pivots,
        float_pivots=float_pivots,
        bland_pivots=bland_pivots,
        guided=fallback is None,
        fallback=fallback,
        rounded=rounded,
    )
