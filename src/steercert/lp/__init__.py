"""Linear feasibility core: does A w = b admit w >= 0?

Two solvers share one numpy phase-one kernel, a revised simplex that
updates the basis inverse pivot by pivot and factorizes it from the
original data every ``REFACTOR`` pivots and again before it returns.
``solve_feasibility_float`` judges the kernel's final basis within the
fixed bands of one tolerance, ``TOL``, and may answer undecided near
the boundary.
``solve_feasibility_exact`` runs one revised simplex loop under Bland's
rule in rational arithmetic, started from the final basis of the same
float phase one; that basis is usually already optimal, so the loop
only confirms it, and it always decides.
Every verdict carries a witness that was re-verified by substitution
before being returned.
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
