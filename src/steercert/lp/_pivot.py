"""Revised phase-one simplex kernel.

The kernel keeps the inverse of the basis matrix B = [A | I][:, basis]
and takes from it the basic solution x_B = B^-1 b, the dual prices
y = c_B B^-1 and the structural reduced costs c_j - y.A_j.  B^-1 is
factorized from the original data at the start and after every
``REFACTOR`` pivots; in between, each pivot updates it by its rank-one
(eta) step, the product form of the inverse.  Before the kernel returns
it factorizes the final basis afresh and prices again, so roundoff from
the updates never reaches a verdict: the numbers the caller judges are
those of a fresh factorization of the basis it gets back, and if the
fresh prices no longer say stop, the kernel pivots on.  An updated
inverse also refactorizes before a pivot that is small next to the rest
of its column, which may be roundoff of the updates; taken, such a
pivot can make the basis singular.

Pricing is Dantzig's rule (most negative reduced cost), which needs far
fewer pivots than Bland's rule on the engine's wide LPs.  Degenerate
pivots cannot make it cycle, because the ratio test breaks ties
lexicographically (Dantzig, Orden & Wolfe, Pacific J. Math. 5, 183
(1955)): among the rows tied on x_r / d_r it takes the one whose row
[B^-1]_r / d_r is lexicographically smallest.  If every row of
[x_B | B^-1] starts lexicographically positive, each pivot keeps them
so and strictly lowers [z | c_B B^-1] lexicographically, so no basis
comes round again.  The all-artificial start has B^-1 = I and x_B >= 0,
so its rows qualify.  A warm start from another basis B0 with x_B >= 0
does not in general, so there the kernel compares the rows of B^-1 B0
instead: they start as the rows of I, and the same argument holds for
them.  The all-artificial start keeps the key on the rows of B^-1,
which costs nothing extra.

A caller may also pass ``separate``, a test of the dual prices y, to
stop an infeasible solve before its optimum.  It is consulted after
pricing, only at a basis that is not yet optimal and where
z + rc_min > 0, with rc_min the least structural reduced cost: phase
one has c_j = 0 on the structural columns, so -y is a Farkas candidate
with -y.b = -z and -y.A_j = rc_j, and raising it until it is
nonnegative on the columns at hand costs -rc_min of its margin z.  A
candidate with z + rc_min <= 0 cannot separate after such a lift, so
the test is not asked.  The y it sees comes from a fresh factorization
of the current basis, made apart from the updated inverse the pivots
use, so a test that declines leaves the pivot path exactly as it is
without one.  If the test accepts, the kernel returns SEPARATED with
the numbers of that fresh factorization.
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
ITERATION_LIMIT = 1
STALLED = 2
SEPARATED = 3

# pivots between two factorizations of the basis from the data
REFACTOR = 50
# the z* up to which ``floating`` reports feasible, and the reduced cost a column must beat to enter
TOL = 1e-9
# pivots smaller than this amplify roundoff faster than they make progress
PIVOT_EPS = 1e-8


def _price(binv, full, b, cost, basis):
    """(x_B, z, y, structural reduced costs) of ``basis`` from its inverse."""
    n = full.shape[1] - len(b)
    cb = cost[basis]
    xb = binv @ b
    y = cb @ binv
    return xb, float(cb @ xb), y, cost[:n] - y @ full[:, :n]


def run_phase1(full, b, cost, basis, max_iter, separate=None):
    """Pivot ``basis`` in place until no structural column improves z = c.w.

    full:  m x (n + m) float64 matrix [A | I]; the identity columns
           n..n+m-1 (the artificials) may leave the basis but never enter.
    b:     length-m right-hand side; the start basis must have x_B >= 0.
    cost:  length n + m costs c, data like A and b.
    basis: length-m int array, basis[i] = the column basic in row i; the
           all-artificial basis n..n+m-1 is a cold start, any other a
           warm start.
    separate: optional test of the dual prices y at a basis that is not
           optimal and has z + rc_min > 0 (see the module docstring);
           a true result stops the solve with status SEPARATED.

    The entering column has the most negative reduced cost, below -TOL;
    the leaving row minimizes the ratio x_r / d_r over entries d_r above
    PIVOT_EPS, ties broken by the lexicographically smallest
    [B^-1]_r / d_r, or [B^-1 B0]_r / d_r from a warm start basis B0.
    At most ``max_iter`` pivots are made.
    Returns (status, pivots, clean): clean is (x_B, z, y, min structural
    reduced cost) from a fresh factorization of the final basis, or None
    when a basis matrix was singular.
    """
    m = len(b)
    n = full.shape[1] - m
    # the lexicographic key's right factor B0: None (the identity) from cold
    start = None if np.array_equal(basis, np.arange(n, n + m)) else full[:, basis]
    binv = None
    age = 0  # pivots since B^-1 was last factorized; 0 means fresh
    it = 0
    while True:
        if binv is None or age == REFACTOR:
            try:
                binv = np.linalg.inv(full[:, basis])
            except np.linalg.LinAlgError:
                return STALLED, it, None
            age = 0
        xb, z, y, rc = _price(binv, full, b, cost, basis)
        entering = int(rc.argmin()) if n else -1
        clean = (xb, z, y, float(rc[entering]) if n else 0.0)
        if separate is not None and n and -z < rc[entering] < -TOL:
            fresh = clean if not age else _fresh(full, b, cost, basis)
            if fresh is not None and fresh[1] + fresh[3] > 0.0 and separate(fresh[2]):
                return SEPARATED, it, fresh
        if n == 0 or rc[entering] >= -TOL:
            status = OPTIMAL
        elif it == max_iter:
            status = ITERATION_LIMIT
        else:
            col = binv @ full[:, entering]
            rows = (col > PIVOT_EPS).nonzero()[0]
            status = STALLED if rows.size == 0 else None
        if status is not None:
            if age:
                binv = None  # refactorize and price the same basis again
                continue
            return status, it, clean

        ratios = xb[rows] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        if tied.size == 1:
            r = tied[0]
        elif start is None:
            r = min(tied, key=lambda i: (binv[i] / col[i]).tolist())
        else:
            r = min(tied, key=lambda i: (binv[i] @ start / col[i]).tolist())
        if age and col[r] < PIVOT_EPS * abs(col).max():
            # next to the rest of its column this pivot may be roundoff of
            # the updates: choose again from a fresh factorization
            binv = None
            continue
        basis[r] = entering
        # eta step: row r of the new inverse, then eliminate col from the rest
        row = binv[r] / col[r]
        binv -= col[:, None] * row
        binv[r] = row
        age += 1
        it += 1


def _fresh(full, b, cost, basis):
    """``clean`` of ``basis`` from a factorization of its own, or None if singular."""
    try:
        binv = np.linalg.inv(full[:, basis])
    except np.linalg.LinAlgError:
        return None
    xb, z, y, rc = _price(binv, full, b, cost, basis)
    return xb, z, y, float(rc.min())
