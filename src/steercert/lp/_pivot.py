"""Revised phase-one simplex kernel.

Every iteration factorizes the basis matrix B = [A | I][:, basis] of the
original data and takes from that one factorization the basic solution
x_B = B^-1 b, the dual prices y = c_B B^-1 and the structural reduced
costs c_j - y.A_j.  No updated tableau is carried from pivot to pivot,
so roundoff cannot build up, and the numbers the last iteration priced
with are the ones the caller judges.

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


def run_phase1(full, b, cost, basis, eps_cost, eps_pivot, max_iter):
    """Pivot ``basis`` in place until no structural column improves z = c.w.

    full:  m x (n + m) float64 matrix [A | I]; the identity columns
           n..n+m-1 (the artificials) may leave the basis but never enter.
    b:     length-m right-hand side; the start basis must have x_B >= 0.
    cost:  length n + m costs c, data like A and b.
    basis: length-m int array, basis[i] = the column basic in row i.

    The entering column has reduced cost below -eps_cost; the leaving row
    minimizes the ratio over entries above eps_pivot, ties broken by the
    lowest basic-variable index.  Returns (status, pivots, clean): clean
    is (x_B, z, y, min structural reduced cost) of the final basis, or
    None when a basis matrix was singular.
    """
    m = len(b)
    n = full.shape[1] - m
    a, c = full[:, :n], cost[:n]
    best_z = math.inf
    seen = set()  # bases visited by Dantzig pivots since z last fell
    bland = False
    for it in range(max_iter + 1):
        bmat = full[:, basis]
        try:
            binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            return STALLED, it, None
        cb = cost[basis]
        xb = binv @ b
        y = cb @ binv
        z = float(cb @ xb)
        if z < best_z - 1e-12 * (1.0 + abs(z)):
            best_z = z
            seen.clear()
            bland = False
        elif not bland:
            key = np.sort(basis).tobytes()
            bland = key in seen
            seen.add(key)

        rc = c - y @ a
        entering = int(np.argmin(rc)) if n else -1
        clean = (xb, z, y, float(rc[entering]) if n else 0.0)
        if n == 0 or rc[entering] >= -eps_cost:
            return OPTIMAL, it, clean
        if it == max_iter:
            return ITERATION_LIMIT, it, clean
        if bland:
            entering = int(np.flatnonzero(rc < -eps_cost)[0])

        col = binv @ full[:, entering]
        rows = np.nonzero(col > eps_pivot)[0]
        if rows.size == 0:
            return STALLED, it, clean
        ratios = xb[rows] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        basis[tied[np.argmin(basis[tied])]] = entering
