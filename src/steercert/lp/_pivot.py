"""Revised phase-one simplex kernel.

The kernel keeps the inverse of the basis matrix B = [A | I][:, basis]
and takes from it the basic solution x_B = B^-1 b, the dual prices
y = c_B B^-1 and the structural reduced costs c_j - y.A_j.  B^-1 is
factorized from the original data in one place, at the top of the
pivot loop; in between, each pivot updates it by its rank-one (eta)
step, the product form of the inverse.  It is factorized at the start,
every ``REFACTOR`` pivots, before a pivot that is small next to the
rest of its column (it may be roundoff of the updates and, taken, can
make the basis singular), and whenever numbers priced from an updated
inverse would leave the loop: before ``separate`` is asked and before
the kernel returns.  So roundoff from the updates never reaches a
verdict: the numbers the caller judges are those of a fresh
factorization of the basis it gets back, and if the fresh prices no
longer say stop, the kernel pivots on from that fresh inverse.

Pricing is Dantzig's rule (most negative reduced cost), which needs far
fewer pivots than Bland's rule on the engine's wide LPs.  Degenerate
pivots cannot make it cycle, because the ratio test breaks ties
lexicographically (Dantzig, Orden & Wolfe, Pacific J. Math. 5, 183
(1955)): with B0 the basis matrix the kernel starts from, among the
rows tied on x_r / d_r it takes the one whose row [B^-1 B0]_r / d_r is
lexicographically smallest.  Those rows start as the rows of I, and
x_B >= 0 at the start, so every row of [x_B | B^-1 B0] starts
lexicographically positive; each pivot keeps them so and strictly
lowers [z | c_B B^-1 B0] lexicographically, so no basis comes round
again.  From the all-artificial start B0 is I, and the key is the rows
of B^-1.

A caller may also pass ``separate``, a test of the dual prices y, to
stop an infeasible solve before its optimum.  It is asked only at a
basis that is not yet optimal and where z + rc_min > 0, with rc_min the
least structural reduced cost: phase one has c_j = 0 on the structural
columns, so -y is a Farkas candidate with -y.b = -z and -y.A_j = rc_j,
and raising it until it is nonnegative on the columns at hand costs
-rc_min of its margin z.  A candidate with z + rc_min <= 0 cannot
separate after such a lift, so the test is not asked.  The y it sees,
like every number the kernel returns, comes from a fresh factorization.
If the test accepts, the kernel returns SEPARATED with those numbers;
if it declines, pivoting goes on from that factorization, which differs
from the updated inverse it replaces by roundoff only.
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


def run_phase1(full, b, cost, basis, max_iter, separate=None):
    """Pivot ``basis`` in place until no structural column improves z = c.w.

    full:  m x (n + m) float64 matrix [A | I]; the identity columns
           n..n+m-1 (the artificials) may leave the basis but never enter.
    b:     length-m right-hand side; the start basis must have x_B >= 0.
    cost:  length n + m costs c, data like A and b.
    basis: length-m int array, basis[i] = the column basic in row i,
           such as the all-artificial basis n..n+m-1.
    separate: optional test of the dual prices y at a basis that is not
           optimal and has z + rc_min > 0 (see the module docstring);
           a true result stops the solve with status SEPARATED.

    The entering column has the most negative reduced cost, below -TOL;
    the leaving row minimizes the ratio x_r / d_r over entries d_r above
    PIVOT_EPS, ties broken by the lexicographically smallest
    [B^-1 B0]_r / d_r, B0 the start basis matrix.
    At most ``max_iter`` pivots are made.
    Returns (status, pivots, clean): clean is (x_B, z, y) from a fresh
    factorization of the final basis, or None when a basis matrix was
    singular.
    """
    m = len(b)
    n = full.shape[1] - m
    start = full[:, basis]  # B0, the right factor of the tie key
    # the structural reduced costs, then +inf: with no columns, none enters
    rc = np.full(n + 1, np.inf)
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
        cb = cost[basis]
        xb = binv @ b
        z = float(cb @ xb)
        y = cb @ binv
        np.subtract(cost[:n], y @ full[:, :n], out=rc[:n])
        entering = int(rc.argmin())
        rc_min = rc[entering]
        ask = separate is not None and -z < rc_min < -TOL
        if rc_min >= -TOL:
            status = OPTIMAL
        elif it == max_iter:
            status = ITERATION_LIMIT
        else:
            col = binv @ full[:, entering]
            rows = (col > PIVOT_EPS).nonzero()[0]
            status = STALLED if rows.size == 0 else None
        if age and (ask or status is not None):
            binv = None  # these numbers leave the loop: price a fresh factorization
            continue
        if ask and separate(y):
            return SEPARATED, it, (xb, z, y)
        if status is not None:
            return status, it, (xb, z, y)

        ratios = xb[rows] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = tied[0] if tied.size == 1 else min(tied, key=lambda i: (binv[i] @ start / col[i]).tolist())
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
