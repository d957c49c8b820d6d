"""Linear feasibility core: does A w = b admit w >= 0?

Two solvers share one numpy phase-one kernel, a revised simplex that
prices by Dantzig's rule, breaks ratio-test ties lexicographically so it
cannot cycle, and updates the basis inverse pivot by pivot; it
factorizes the basis in one place, from the original data, every
``REFACTOR`` pivots, before a small pivot, and whenever its numbers
would leave the kernel.
``solve_feasibility_float`` reports the kernel's final basis without
judging it: feasible when the phase-one optimum is at most ``TOL``,
otherwise infeasible with the basis's Farkas candidate, and undecided
only when the kernel has no numbers (a singular basis, the iteration
limit, no admissible pivot); its caller checks the witness.  Given a
``separate`` test, it stops an infeasible solve at the first basis
whose dual that test turns into a certificate.
``solve_feasibility_exact`` takes Python ints only.  It rounds the
final x_B and y of the same float phase one to exact rationals by
Cramer's rule and verifies them; only when that fails does it run one
revised simplex loop under Bland's rule in rational arithmetic, so it
always decides, and every verdict carries a witness verified by exact
substitution before it is returned.
"""

from __future__ import annotations

from .problem import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    FeasibilityProblem,
    FeasibilityVerdict,
    parse_rational,
)
from .floating import BACKEND, TOL, solve_feasibility_float
from .exact import solve_feasibility_exact

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "UNDECIDED",
    "FeasibilityProblem",
    "FeasibilityVerdict",
    "parse_rational",
    "BACKEND",
    "TOL",
    "solve_feasibility_float",
    "solve_feasibility_exact",
]
