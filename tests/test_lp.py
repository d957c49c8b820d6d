from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from steercert.errors import InputError
from steercert.lp import (
    FEASIBLE,
    INFEASIBLE,
    TOL,
    UNDECIDED,
    FeasibilityProblem,
    FeasibilityVerdict,
    parse_rational,
    solve_feasibility_exact,
    solve_feasibility_float,
)
from helpers import (
    assert_certificate_valid,
    assert_model_valid,
    feasible_instance,
    infeasible_instance,
    integer_rows,
)

RNG = np.random.default_rng(4071)


def test_random_feasible_instances_float():
    for _ in range(60):
        problem, _ = feasible_instance(RNG, RNG.integers(2, 8), RNG.integers(2, 12))
        verdict = solve_feasibility_float(problem)
        assert verdict.status == FEASIBLE
        assert_model_valid(problem, verdict)


def test_random_infeasible_instances_float():
    for _ in range(60):
        problem = infeasible_instance(RNG, RNG.integers(2, 7), RNG.integers(2, 10))
        verdict = solve_feasibility_float(problem)
        assert verdict.status == INFEASIBLE
        assert_certificate_valid(problem, verdict)


def test_zero_rhs_is_feasible_with_zero_model():
    problem = FeasibilityProblem(a=RNG.normal(size=(3, 5)), b=np.zeros(3), num_vars=5)
    verdict = solve_feasibility_float(problem)
    assert verdict.status == FEASIBLE
    assert_model_valid(problem, verdict)


def test_single_negative_equality_is_infeasible():
    problem = FeasibilityProblem(a=np.array([[1.0, 1.0]]), b=np.array([-1.0]), num_vars=2)
    verdict = solve_feasibility_float(problem)
    assert verdict.status == INFEASIBLE
    assert_certificate_valid(problem, verdict)


def test_redundant_rows_are_harmless():
    base, _ = feasible_instance(RNG, 3, 6)
    a = np.vstack([base.a, base.a[0], base.a[1]])
    b = np.concatenate([base.b, base.b[:2]])
    verdict = solve_feasibility_float(FeasibilityProblem(a=a, b=b, num_vars=6))
    assert verdict.status == FEASIBLE


def test_exact_mode_never_undecided_and_agrees_with_float():
    for k in range(30):
        if k % 2 == 0:
            problem, _ = feasible_instance(RNG, 3, 5)
        else:
            problem = infeasible_instance(RNG, 3, 5)
        a, b = integer_rows(
            [[Fraction(x).limit_denominator(10**6) for x in row] for row in problem.a],
            [Fraction(x).limit_denominator(10**6) for x in problem.b],
        )
        exact_problem = FeasibilityProblem(a=a, b=b, num_vars=problem.num_vars)
        exact = solve_feasibility_exact(exact_problem)
        assert exact.status in (FEASIBLE, INFEASIBLE)
        if exact.status == FEASIBLE:
            # model is exact: substitute in rational arithmetic
            w = exact.model
            for i, row in enumerate(a):
                assert sum(row[j] * w[j] for j in range(len(w))) == b[i]
            assert all(v >= 0 for v in w)
        else:
            c = exact.certificate
            assert sum(ci * bi for ci, bi in zip(c, b)) < 0
            for j in range(exact_problem.num_vars):
                assert sum(c[i] * a[i][j] for i in range(len(b))) >= 0


def test_exact_and_float_verdicts_match_on_decided_instances():
    for _ in range(10):
        problem, _ = feasible_instance(RNG, 4, 7)
        f = solve_feasibility_float(problem)
        a, b = integer_rows(
            [[Fraction(x).limit_denominator(10**9) for x in row] for row in problem.a],
            [Fraction(x).limit_denominator(10**9) for x in problem.b],
        )
        e = solve_feasibility_exact(FeasibilityProblem(a=a, b=b, num_vars=problem.num_vars))
        if f.status != UNDECIDED:
            assert f.status == e.status


def test_problem_validation():
    with pytest.raises(InputError):
        FeasibilityProblem(a=[[1.0, 2.0], [3.0]], b=[1.0, 1.0], num_vars=2)
    with pytest.raises(InputError):
        FeasibilityProblem(a=[[1.0, 2.0]], b=[1.0, 2.0], num_vars=2)


def test_verdict_serialization_and_meta():
    problem, _ = feasible_instance(RNG, 3, 4)
    verdict = solve_feasibility_float(problem)
    doc = verdict.to_dict()
    json.dumps(doc)
    assert doc["status"] == FEASIBLE
    tagged = verdict.with_meta(note="x")
    assert tagged.meta["note"] == "x"
    assert verdict.is_feasible and not verdict.is_infeasible and not verdict.is_undecided


def test_exact_verdict_serializes_fractions():
    verdict = solve_feasibility_exact(FeasibilityProblem(a=[[1, 1]], b=[-1], num_vars=2))
    assert verdict.status == INFEASIBLE
    text = json.dumps(verdict.to_dict())
    assert "/" in text or "-1" in text


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(InputError):
        parse_rational("a/b")


def test_tolerance_boundary_behaviour():
    # the float LP reports its final basis: a right-hand side 10*TOL
    # outside the cone is infeasible, with the Farkas candidate [1] of
    # the optimal basis, which separates exactly
    a = np.array([[1.0]])
    for offset, expected in ((-10 * TOL, INFEASIBLE), (-1000 * TOL, INFEASIBLE), (0.5, FEASIBLE)):
        problem = FeasibilityProblem(a=a, b=np.array([offset]), num_vars=1)
        verdict = solve_feasibility_float(problem)
        assert verdict.status == expected, (offset, verdict.status, verdict.meta)
        if expected == INFEASIBLE:
            np.testing.assert_array_equal(verdict.certificate, [1.0])
            assert_certificate_valid(problem, verdict)
        else:
            assert_model_valid(problem, verdict)
