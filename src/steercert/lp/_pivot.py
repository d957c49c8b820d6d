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
fewer pivots than Bland's rule on the engine's wide LPs.  Dantzig's rule
can cycle through degenerate pivots, so the kernel remembers the bases
it visits while z stays level; when one comes round again it prices by
Bland's rule (lowest-index improving column) until z strictly decreases,
then goes back to Dantzig.  Within one level of z Dantzig visits no
basis twice and Bland's rule cannot cycle, and z only falls between
levels, so the kernel terminates.
"""

from __future__ import annotations

import math

import numpy as np

OPTIMAL = 0
ITERATION_LIMIT = 1
STALLED = 2

# pivots between two factorizations of the basis from the data
REFACTOR = 50


def run_phase1(full, b, cost, basis, eps_cost, eps_pivot, max_iter):
    """Pivot ``basis`` in place until no structural column improves z = c.w.

    full:  m x (n + m) float64 matrix [A | I]; the identity columns
           n..n+m-1 (the artificials) may leave the basis but never enter.
    b:     length-m right-hand side; the start basis must have x_B >= 0.
    cost:  length n + m costs c, data like A and b.
    basis: length-m int array, basis[i] = the column basic in row i.

    The entering column has reduced cost below -eps_cost; the leaving row
    minimizes the ratio over entries above eps_pivot, ties broken by the
    lowest basic-variable index.  At most ``max_iter`` pivots are made.
    Returns (status, pivots, clean): clean is (x_B, z, y, min structural
    reduced cost) from a fresh factorization of the final basis, or None
    when a basis matrix was singular.
    """
    m = len(b)
    n = full.shape[1] - m
    a, c = full[:, :n], cost[:n]
    best_z = math.inf
    seen = set()  # bases visited by Dantzig pivots since z last fell
    bland = False
    binv = None
    age = 0  # pivots since B^-1 was last factorized; 0 means fresh
    it = 0
    moved = True  # the basis changed since it was last priced
    while True:
        if binv is None or age == REFACTOR:
            try:
                binv = np.linalg.inv(full[:, basis])
            except np.linalg.LinAlgError:
                return STALLED, it, None
            age = 0
        cb = cost[basis]
        xb = binv @ b
        y = cb @ binv
        z = float(cb @ xb)
        if moved:  # not when a fresh factorization prices the same basis again
            moved = False
            if z < best_z - 1e-12 * (1.0 + abs(z)):
                best_z = z
                seen.clear()
                bland = False
            elif not bland:
                key = np.sort(basis).tobytes()
                bland = key in seen
                seen.add(key)

        rc = c - y @ a
        entering = int(rc.argmin()) if n else -1
        clean = (xb, z, y, float(rc[entering]) if n else 0.0)
        if n == 0 or rc[entering] >= -eps_cost:
            status = OPTIMAL
        elif it == max_iter:
            status = ITERATION_LIMIT
        else:
            if bland:
                entering = int(np.flatnonzero(rc < -eps_cost)[0])
            col = binv @ full[:, entering]
            rows = (col > eps_pivot).nonzero()[0]
            status = STALLED if rows.size == 0 else None
        if status is not None:
            if age:
                binv = None  # refactorize and price the same basis again
                continue
            return status, it, clean

        ratios = xb[rows] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = tied[basis[tied].argmin()]
        if age and col[r] < eps_pivot * abs(col).max():
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
        moved = True
