"""Phase-one simplex kernel on a dense numpy tableau.

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

import numpy as np

OPTIMAL = 0
ITERATION_LIMIT = 1
STALLED = 2


def run_phase1(t, basis, n_struct, eps_cost, eps_pivot, max_iter):
    """Drive the phase-one tableau ``t`` to structural optimality in place.

    t:        (m+1) x (n_struct + m + 1) float64 tableau.  Rows 0..m-1 hold
              [A | I | b] with b >= 0; row m holds the priced-out reduced
              costs with t[m, -1] = -z.
    basis:    length-m int64 array, basis[i] = column basic in row i.
    n_struct: number of structural columns; columns n_struct..n_struct+m-1
              are artificials and never re-enter the basis.

    The entering column has reduced cost below -eps_cost; the leaving row
    minimizes the ratio over entries above eps_pivot, ties broken by the
    lowest basic-variable index.  Returns (status, pivots).
    """
    if n_struct == 0:
        return OPTIMAL, 0  # nothing can enter: the all-artificial basis is optimal
    m = basis.shape[0]
    rhs = t.shape[1] - 1
    obj = t[m]
    costs = obj[:n_struct]
    best_z = -obj[rhs]
    seen = set()  # bases visited by Dantzig pivots since z last fell
    bland = False
    for it in range(max_iter):
        if not bland:
            entering = int(np.argmin(costs))
            if costs[entering] >= -eps_cost:
                return OPTIMAL, it
        else:
            improving = np.flatnonzero(costs < -eps_cost)
            if improving.size == 0:
                return OPTIMAL, it
            entering = int(improving[0])

        col = t[:m, entering]
        pos = col > eps_pivot
        if not pos.any():
            return STALLED, it
        ratios = np.full(m, np.inf)
        ratios[pos] = t[:m, rhs][pos] / col[pos]
        best = ratios.min()
        tied = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        leave = tied[np.argmin(basis[tied])]

        piv = t[leave, entering]
        t[leave] /= piv
        scale = t[:, entering].copy()
        scale[leave] = 0.0
        t -= np.outer(scale, t[leave])
        t[:, entering] = 0.0
        t[leave, entering] = 1.0
        basis[leave] = entering

        z = -obj[rhs]
        if z < best_z - 1e-12 * (1.0 + abs(best_z)):
            best_z = z
            seen.clear()
            bland = False
        elif not bland:
            key = np.sort(basis).tobytes()
            bland = key in seen
            seen.add(key)
    return ITERATION_LIMIT, max_iter
