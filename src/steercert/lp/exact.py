"""Exact rational feasibility solver.

The same phase-one question as the float path, decided in
``fractions.Fraction`` arithmetic.  The float kernel only proposes a
basis: ``floating.phase_one`` runs on a float64 copy of the data, and
its final basis B is then confirmed exactly.  Integer Gauss-Jordan
solves B x_B = b; with x_B >= 0, z = c_B . x_B == 0 yields an exact
model, and z > 0 yields a separating certificate from B^T y = c_B.

When that basis is singular, has a negative basic value, or gives a
witness that fails its exact check, Bland's rule on the dense Fraction
tableau decides instead.  It starts from the float basis when x_B >= 0
(then a valid phase-one start) and from the all-artificial basis
otherwise.  Bland's rule cannot cycle, so exact mode terminates and
never answers undecided.  Every witness is re-checked by exact
substitution; a failure on the Bland path is an internal bug, not an
input property.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..errors import InputError, InternalCheckError
from . import floating
from .problem import FEASIBLE, INFEASIBLE, FeasibilityProblem, FeasibilityVerdict, parse_rational

# Bland's rule cannot cycle, so this only guards against a logic bug.
_MAX_PIVOTS = 2_000_000


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise InputError("constraint data contains non-finite entries")
        return Fraction(value)
    raise InputError(f"cannot use {type(value).__name__} in exact mode")


def _solve(mat, rhs):
    """The exact x with mat x = rhs, or None if the square mat is singular.

    Gauss-Jordan on integer rows: each row [mat_i | rhs_i] is scaled to
    integers, and eliminating column k with pivot row p replaces row r by
    (p_k r - r_k p) / g for the gcd g of its entries.  Rows with a zero in
    column k are left alone, and only the nonzero columns of p are
    visited.  No Fraction is formed until x_k = rhs_k / diag_k.
    """
    m = len(rhs)
    rows = []
    for row, r in zip(mat, rhs):
        entries = [*row, r]
        scale = math.lcm(*(v.denominator for v in entries))
        rows.append([v.numerator * (scale // v.denominator) for v in entries])
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


def _model(a, b, n, basis, values):
    """w with w[basis[i]] = values[i] (structural columns only) if it
    satisfies w >= 0 and A w = b exactly, else None."""
    w = [Fraction(0)] * n
    for col, v in zip(basis, values):
        if col < n:
            w[col] = v
    if any(v < 0 for v in w):
        return None
    support = [j for j in range(n) if w[j]]
    for row, bi in zip(a, b):
        if sum(row[j] * w[j] for j in support if row[j]) != bi:
            return None
    return w


def separates(cert, a, b, n) -> bool:
    """True when cert.A >= 0 and cert.b < 0 hold exactly for the n columns
    of the rows ``a``; every entry must be a Fraction or an int."""
    ca = [Fraction(0)] * n
    for c, row in zip(cert, a):
        if c:
            for j, v in enumerate(row):
                if v:
                    ca[j] += c * v
    if any(v < 0 for v in ca):
        return False
    return sum(c * bi for c, bi in zip(cert, b)) < 0


def _certificate(a, b, n, sign, y):
    """c = -(y * sign) if c separates b from the columns of a, else None."""
    cert = [-(yk * s) for yk, s in zip(y, sign)]
    return cert if separates(cert, a, b, n) else None


def _float_basis(a_pos, b_pos, n):
    """(basis, pivots) from the float kernel, or None when the data leave
    float64 range.

    Only the basis is used, and it is confirmed exactly, so overflow or
    NaN inside the float search (entries near the float64 limit) merely
    makes a worse guess and is not reported.
    """
    m = len(b_pos)
    try:
        a_f = np.array([[float(v) for v in row] for row in a_pos], dtype=np.float64).reshape(m, n)
        b_f = np.array([float(v) for v in b_pos], dtype=np.float64)
    except OverflowError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        _, basis, _, pivots = floating.phase_one(a_f, b_f, floating.DEFAULT_TOL)
    return [int(j) for j in basis], pivots


def _pivot_on(rows, obj, leave, entering):
    piv = rows[leave][entering]
    rows[leave] = [v / piv for v in rows[leave]]
    pivot_row = rows[leave]
    for i in range(len(rows)):
        if i == leave:
            continue
        factor = rows[i][entering]
        if factor != 0:
            rows[i] = [v - factor * p for v, p in zip(rows[i], pivot_row)]
    factor = obj[entering]
    if factor != 0:
        obj[:] = [v - factor * p for v, p in zip(obj, pivot_row)]


def _bland(a, b, n, sign, a_pos, b_pos, start):
    """Phase one on the dense Fraction tableau under Bland's rule.

    ``start`` is None for the all-artificial basis, or a basis whose basic
    solution is nonnegative; its structural columns are pivoted in first.
    Returns (verdict, pivots); the verdict's witness is re-checked, and a
    failed check raises.
    """
    m = len(b_pos)
    zero = Fraction(0)
    rows = []
    for i in range(m):
        row = list(a_pos[i])
        row += [Fraction(1) if k == i else zero for k in range(m)]
        row.append(b_pos[i])
        rows.append(row)
    obj = [-sum(rows[i][j] for i in range(m)) for j in range(n)]
    obj += [zero] * m
    obj.append(-sum(rows[i][-1] for i in range(m)))
    basis = list(range(n, n + m))

    pivots = 0
    if start is not None:
        keep = set(start)
        for entering in (j for j in start if j < n):
            leave = next(
                (i for i in range(m) if basis[i] not in keep and rows[i][entering] != 0), -1
            )
            if leave < 0:
                raise InternalCheckError("guided start basis is singular")
            _pivot_on(rows, obj, leave, entering)
            basis[leave] = entering
            pivots += 1

    while True:
        entering = -1
        for j in range(n):
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leave = -1
        best = zero
        for i in range(m):
            coeff = rows[i][entering]
            if coeff > 0:
                ratio = rows[i][-1] / coeff
                if leave < 0 or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave = i
                    best = ratio
        if leave < 0:
            raise InternalCheckError("phase one claims an unbounded artificial objective")
        _pivot_on(rows, obj, leave, entering)
        basis[leave] = entering
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise InternalCheckError("pivot budget exhausted under an anti-cycling rule")

    z = -obj[-1]
    if z == 0:
        w = _model(a, b, n, basis, [row[-1] for row in rows])
        if w is None:
            raise InternalCheckError("exact model failed re-substitution")
        return FeasibilityVerdict(FEASIBLE, model=w, meta={"z": z}), pivots
    cert = _certificate(a, b, n, sign, [Fraction(1) - obj[n + k] for k in range(m)])
    if cert is None:
        raise InternalCheckError("exact certificate failed re-substitution")
    return FeasibilityVerdict(INFEASIBLE, certificate=cert, meta={"z": z}), pivots


def _guided(a, b, n, sign, a_pos, b_pos, basis):
    """Confirm the float basis exactly.

    Returns (verdict, None, None) when it passes, else (None, reason,
    start): ``start`` is the basis itself when its basic solution is
    nonnegative, so Bland's rule can start there, and None otherwise.
    """
    m = len(b)
    mat = [[a_pos[i][j] if j < n else int(j - n == i) for j in basis] for i in range(m)]
    xb = _solve(mat, b_pos)
    if xb is None:
        return None, "singular basis", None
    if any(v < 0 for v in xb):
        return None, "negative basic value", None
    z = sum((v for v, j in zip(xb, basis) if j >= n), Fraction(0))
    if z == 0:
        w = _model(a, b, n, basis, xb)
        if w is None:
            return None, "model check", basis
        return FeasibilityVerdict(FEASIBLE, model=w, meta={"z": z}), None, None
    y = _solve([list(col) for col in zip(*mat)], [int(j >= n) for j in basis])
    cert = _certificate(a, b, n, sign, y)
    if cert is None:
        return None, "certificate check", basis
    return FeasibilityVerdict(INFEASIBLE, certificate=cert, meta={"z": z}), None, None


def solve_feasibility_exact(problem: FeasibilityProblem) -> FeasibilityVerdict:
    a = [[_as_fraction(v) for v in row] for row in problem.a]
    b = [_as_fraction(v) for v in problem.b]
    n = problem.num_vars
    sign = [-1 if bi < 0 else 1 for bi in b]
    a_pos = [row if s > 0 else [-v for v in row] for s, row in zip(sign, a)]
    b_pos = [s * bi for s, bi in zip(sign, b)]

    guess = _float_basis(a_pos, b_pos, n)
    if guess is None:
        verdict, fallback, start, float_pivots = None, "float overflow", None, 0
    else:
        basis, float_pivots = guess
        verdict, fallback, start = _guided(a, b, n, sign, a_pos, b_pos, basis)
    bland_pivots = 0
    if verdict is None:
        verdict, bland_pivots = _bland(a, b, n, sign, a_pos, b_pos, start)
    return verdict.with_meta(
        mode="exact",
        pivots=float_pivots + bland_pivots,
        float_pivots=float_pivots,
        bland_pivots=bland_pivots,
        guided=fallback is None,
        fallback=fallback,
    )
