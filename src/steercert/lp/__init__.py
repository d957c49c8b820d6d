"""Linear feasibility core: does A w = b admit w >= 0?

Two arithmetic modes sit behind one entry point.  Float mode runs a
tolerance-banded phase-one simplex on a numpy tableau and may answer
undecided near the boundary.  Exact mode takes the final basis of the
same float phase one and confirms it in rational arithmetic; when the
basis fails an exact check it falls back to Bland's rule on a Fraction
tableau, so it always decides.  Every verdict carries a witness that was
re-verified by substitution before being returned.
"""

from __future__ import annotations

from ..errors import InputError
from .problem import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    FeasibilityProblem,
    FeasibilityVerdict,
    parse_rational,
)
from .floating import BACKEND, DEFAULT_TOL, solve_feasibility_float
from .exact import solve_feasibility_exact

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "UNDECIDED",
    "FeasibilityProblem",
    "FeasibilityVerdict",
    "parse_rational",
    "BACKEND",
    "DEFAULT_TOL",
    "solve_feasibility",
    "solve_feasibility_float",
    "solve_feasibility_exact",
]


def solve_feasibility(
    problem: FeasibilityProblem,
    mode: str = "float",
    tol: float = DEFAULT_TOL,
) -> FeasibilityVerdict:
    """Solve in the requested arithmetic mode ("float" or "exact")."""
    if mode == "float":
        return solve_feasibility_float(problem, tol=tol)
    if mode == "exact":
        return solve_feasibility_exact(problem)
    raise InputError(f"unknown mode {mode!r}, expected 'float' or 'exact'")
