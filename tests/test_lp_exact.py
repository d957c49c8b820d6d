"""Exact mode: the float witness rounded by Cramer's rule, the revised
Bland loop it falls back to, started from the float basis or from the
all-artificial basis, and the agreement of all three."""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steercert import cli
from steercert.boxworld import box_to_json, mix_assemblages, prbox_assemblage, uniform_assemblage
from steercert.engine import lhs_feasibility_boxworld
from steercert.errors import InputError, InternalCheckError
from steercert.lp import (
    FEASIBLE,
    INFEASIBLE,
    FeasibilityProblem,
    _pivot,
    exact,
    solve_feasibility_exact,
    solve_feasibility_float,
)
from steercert.lp._pivot import OPTIMAL
from steercert.report import RunReport
from helpers import assert_box_verdict_exact, box_lp, deterministic_box, integer_rows, lifted_prbox

HUGE = 10**400
NEAR_MAX = 10**308


def bland_from_scratch(solve, *args):
    """Run ``solve`` with the float guess withheld, so Bland's rule starts
    from the all-artificial basis."""
    with mock.patch.object(exact, "_float_basis", return_value=None):
        verdict = solve(*args)
    assert verdict.meta["guided"] is False and verdict.meta["float_pivots"] == 0
    return verdict


def eliminated(solve, *args):
    """Run ``solve`` with the rounding withheld, so the float basis is
    confirmed or improved by exact elimination."""
    with mock.patch.object(exact, "_round_witness", return_value=None):
        verdict = solve(*args)
    assert verdict.meta["rounded"] is False
    return verdict


def assert_exact_witness(problem, verdict):
    a, b, n = problem.a, problem.b, problem.num_vars
    assert verdict.status in (FEASIBLE, INFEASIBLE)
    if verdict.status == FEASIBLE:
        w = verdict.model
        assert len(w) == n and all(v >= 0 for v in w)
        for row, bi in zip(a, b):
            assert sum(row[j] * w[j] for j in range(n)) == bi
    else:
        c = verdict.certificate
        assert len(c) == len(b)
        assert sum(ci * bi for ci, bi in zip(c, b)) < 0
        for j in range(n):
            assert sum(c[i] * a[i][j] for i in range(len(b))) >= 0


def assert_exact_meta(verdict):
    meta = verdict.meta
    assert meta["mode"] == "exact"
    assert meta["pivots"] == meta["float_pivots"] + meta["bland_pivots"]
    assert isinstance(meta["pivots"], int)
    assert meta["guided"] is (meta["fallback"] is None)
    if meta["guided"]:
        assert meta["bland_pivots"] == 0
    assert isinstance(meta["rounded"], bool)
    if meta["rounded"]:
        assert meta["guided"] and meta["float_pivots"] == meta["pivots"]


ENTRY = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@st.composite
def rational_lps(draw):
    """A system drawn in Fractions, each row and its b_i then scaled to ints."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 7))
    a = [[draw(ENTRY) for _ in range(n)] for _ in range(m)]
    if n and draw(st.booleans()):
        # b inside the cone: feasible by construction, often degenerate
        w = [draw(st.fractions(min_value=0, max_value=3, max_denominator=4)) for _ in range(n)]
        b = [sum((row[j] * w[j] for j in range(n)), Fraction(0)) for row in a]
    else:
        b = [draw(ENTRY) for _ in range(m)]
    a, b = integer_rows(a, b)
    return FeasibilityProblem(a=a, b=b, num_vars=n)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_lps())
def test_guided_and_bland_agree_on_random_rational_lps(problem):
    guided = solve_feasibility_exact(problem)
    confirmed = eliminated(solve_feasibility_exact, problem)
    bland = bland_from_scratch(solve_feasibility_exact, problem)
    assert guided.status == confirmed.status == bland.status
    for verdict in (guided, confirmed, bland):
        assert_exact_witness(problem, verdict)
        assert_exact_meta(verdict)


@st.composite
def box_mixtures(draw):
    """w_pr * PR box + w_det * one deterministic box + rest uniform noise."""
    weight = st.fractions(min_value=0, max_value=1, max_denominator=12)
    lam, mu = draw(weight), draw(weight)
    alice = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    bob = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    noise = mix_assemblages(mu, deterministic_box(alice, bob), uniform_assemblage())
    return mix_assemblages(lam, prbox_assemblage(), noise)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(box_mixtures())
def test_guided_and_bland_agree_on_random_box_mixtures(asm):
    guided = lhs_feasibility_boxworld(asm)
    bland = bland_from_scratch(lhs_feasibility_boxworld, asm)
    assert guided.status == bland.status
    for verdict in (guided, bland):
        assert_box_verdict_exact(asm, verdict)
        assert_exact_meta(verdict)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(box_mixtures())
def test_float_verdicts_on_box_lps_agree_with_exact(asm):
    rational = box_lp(asm)
    a, b = integer_rows(rational.a, rational.b)
    problem = FeasibilityProblem(a=a, b=b, num_vars=rational.num_vars)
    exact_verdict = solve_feasibility_exact(problem)
    assert exact_verdict.status == lhs_feasibility_boxworld(asm).status
    float_copy = FeasibilityProblem(
        a=np.array(problem.a, dtype=float), b=np.array(problem.b, dtype=float), num_vars=problem.num_vars
    )
    float_verdict = solve_feasibility_float(float_copy)
    if not float_verdict.is_undecided:
        assert float_verdict.status == exact_verdict.status


def _local_3322_box():
    """A uniform mixture of four deterministic boxes, 3 settings and 3
    outcomes for Alice, 2 and 2 for Bob."""
    strategies = [((0, 1, 2), (0, 1)), ((2, 2, 0), (1, 1)), ((1, 0, 0), (0, 0)), ((2, 1, 1), (1, 0))]
    mixed = deterministic_box(*strategies[0], a_outcomes=3)
    for k, (alice, bob) in enumerate(strategies[1:], 2):
        mixed = mix_assemblages(Fraction(1, k), deterministic_box(alice, bob, a_outcomes=3), mixed)
    return mixed


def test_engine_box_verdicts_are_guided(monkeypatch):
    # the float witness rounds to an exact one, so no elimination runs
    monkeypatch.setattr(exact, "_solve", mock.Mock(side_effect=AssertionError("_solve was called")))
    cases = [
        (prbox_assemblage(), INFEASIBLE),
        (uniform_assemblage(), FEASIBLE),
        (uniform_assemblage(3, 3, 2, 2), FEASIBLE),
        (_local_3322_box(), FEASIBLE),
        (mix_assemblages(Fraction(5, 9), lifted_prbox(3, 3), uniform_assemblage(3, 2, 3, 2)), INFEASIBLE),
    ]
    for asm, status in cases:
        verdict = lhs_feasibility_boxworld(asm)
        assert verdict.status == status and verdict.meta["rounded"] is True
        assert verdict.meta["guided"] is True and verdict.meta["fallback"] is None
        assert verdict.meta["float_pivots"] > 0 and verdict.meta["bland_pivots"] == 0
        assert_box_verdict_exact(asm, verdict)
        assert_exact_meta(verdict)


@pytest.mark.parametrize(
    "asm, field, delta",
    [(uniform_assemblage(), 0, 1.0), (prbox_assemblage(), 2, 1.0), (prbox_assemblage(), 2, -1.0)],
    ids=["feasible-x_B", "infeasible-y-up", "infeasible-y-down"],
)
def test_perturbed_float_witness_falls_back(monkeypatch, asm, field, delta):
    # a whole unit off in entry 0 of x_B (field 0) or y (field 2): d x_B
    # or d y rounds wrong, the exact check fails, and elimination
    # confirms the same basis.  Lowering y_0 on the PR box still gives a
    # separating c, but not B^T y = c_B, so its c.b is not the basis's z.
    expected = lhs_feasibility_boxworld(asm)
    kernel = _pivot.run_phase1

    def perturbed(*args, separate=None):
        status, pivots, clean = kernel(*args, separate=separate)
        clean = [v.copy() if isinstance(v, np.ndarray) else v for v in clean]
        clean[field][0] += delta
        return status, pivots, tuple(clean)

    monkeypatch.setattr(_pivot, "run_phase1", perturbed)
    verdict = lhs_feasibility_boxworld(asm)
    assert verdict.meta["rounded"] is False
    assert verdict.meta["guided"] is True and verdict.meta["bland_pivots"] == 0
    assert (verdict.status, verdict.model, verdict.certificate, verdict.meta["z"]) == (
        expected.status, expected.model, expected.certificate, expected.meta["z"]
    )
    assert_box_verdict_exact(asm, verdict)
    assert_exact_meta(verdict)


def _kernel_setting(columns):
    """A stand-in kernel that leaves ``columns`` as the final basis."""

    def kernel(full, b, cost, basis, max_iter, separate=None):
        basis[:] = columns
        return OPTIMAL, 0, None

    return kernel


ONE_ROW = FeasibilityProblem(a=[[1, -1]], b=[1], num_vars=2)
TWO_ROWS = FeasibilityProblem(a=[[1, 1], [1, 2]], b=[2, 3], num_vars=2)


@pytest.mark.parametrize(
    "problem, columns, reason",
    [
        (TWO_ROWS, [0, 0], "singular basis"),  # one column basic twice
        (ONE_ROW, [1], "negative basic value"),  # w_1 = -1
        (ONE_ROW, [2], "certificate check"),  # the artificial start is not optimal
    ],
)
def test_wrong_float_basis_falls_back_to_bland(monkeypatch, problem, columns, reason):
    monkeypatch.setattr(_pivot, "run_phase1", _kernel_setting(columns))
    verdict = solve_feasibility_exact(problem)
    assert verdict.status == FEASIBLE
    assert verdict.meta["guided"] is False
    assert verdict.meta["fallback"] == reason
    assert verdict.meta["bland_pivots"] > 0
    assert_exact_witness(problem, verdict)
    assert_exact_meta(verdict)


def test_failed_model_check_raises(monkeypatch):
    # a basis whose exact solve gives z = 0 rebuilds A w = b by construction,
    # so a model failing re-substitution can only be a bug, and it raises
    problem = FeasibilityProblem(a=[[1, 1]], b=[1], num_vars=2)
    monkeypatch.setattr(_pivot, "run_phase1", _kernel_setting([0]))
    monkeypatch.setattr(exact, "_solve", lambda mat, rhs: [Fraction(2)])  # not B^-1 b
    with pytest.raises(InternalCheckError, match="model failed re-substitution"):
        solve_feasibility_exact(problem)


def test_bland_starts_from_a_mixed_float_basis(monkeypatch):
    # float basis: artificial 0 in row 0, w_0 in row 1, so x_B = (1, 1) >= 0;
    # it is not optimal (w_1 improves it), so its certificate fails.  The
    # loop keeps pivoting from that basis: w_1 enters and replaces
    # artificial 0 in row 0, the only row with d_i > 0.
    problem = FeasibilityProblem(a=[[1, 1], [1, 0]], b=[2, 1], num_vars=2)
    monkeypatch.setattr(_pivot, "run_phase1", _kernel_setting([2, 0]))
    verdict = solve_feasibility_exact(problem)
    assert verdict.status == FEASIBLE and verdict.model == [Fraction(1), Fraction(1)]
    assert verdict.meta["fallback"] == "certificate check"
    assert verdict.meta["bland_pivots"] == 1  # w_1 enters; w_0 is already basic


def test_forced_fallback_decides_the_prbox(monkeypatch):
    monkeypatch.setattr(_pivot, "run_phase1", _kernel_setting(list(range(16, 32))))
    verdict = lhs_feasibility_boxworld(prbox_assemblage())
    assert verdict.is_infeasible
    assert verdict.meta["guided"] is False and verdict.meta["fallback"] == "certificate check"
    assert_box_verdict_exact(prbox_assemblage(), verdict)


@pytest.mark.parametrize(
    "a, b, status, fallback",
    [
        ([[HUGE, 1]], [HUGE], FEASIBLE, "float overflow"),
        ([[HUGE, 1]], [-HUGE], INFEASIBLE, "float overflow"),
        ([[1], [1]], [HUGE, HUGE + 1], INFEASIBLE, "float overflow"),
    ],
)
def test_entries_outside_float_range_still_decide(a, b, status, fallback):
    problem = FeasibilityProblem(a=a, b=b, num_vars=len(a[0]))
    verdict = solve_feasibility_exact(problem)
    assert verdict.status == status
    assert verdict.meta["fallback"] == fallback
    assert_exact_witness(problem, verdict)
    assert_exact_meta(verdict)


@pytest.mark.parametrize(
    "a, b, status",
    [
        ([[NEAR_MAX, NEAR_MAX], [NEAR_MAX, -NEAR_MAX], [NEAR_MAX, NEAR_MAX]], [NEAR_MAX] * 3, FEASIBLE),
        ([[NEAR_MAX, 1]] * 4, [-NEAR_MAX] * 4, INFEASIBLE),
    ],
)
def test_entries_near_the_float_limit_decide_without_warnings(a, b, status):
    # each entry converts to a finite float, but sums of them overflow
    problem = FeasibilityProblem(a=a, b=b, num_vars=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = solve_feasibility_exact(problem)
    assert verdict.status == status
    assert_exact_witness(problem, verdict)


def test_zero_column_and_zero_rhs_problems():
    empty = FeasibilityProblem(a=[[], []], b=[0, 1], num_vars=0)
    verdict = solve_feasibility_exact(empty)
    assert verdict.status == INFEASIBLE and verdict.meta["guided"]
    assert_exact_witness(empty, verdict)
    zero = FeasibilityProblem(a=[[1, -1]], b=[0], num_vars=2)
    verdict = solve_feasibility_exact(zero)
    assert verdict.status == FEASIBLE and verdict.model == [0, 0]
    verdict = solve_feasibility_exact(FeasibilityProblem(a=[], b=[], num_vars=0))
    assert verdict.status == FEASIBLE and verdict.model == []


def test_exact_meta_reaches_the_run_report(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(box_to_json(prbox_assemblage())))
    out = tmp_path / "report.json"
    assert cli.main(["check", str(path), "--out", str(out)]) == 0
    meta = RunReport.from_json(out.read_text()).verdicts[0]["meta"]
    assert meta["guided"] is True and meta["fallback"] is None
    assert meta["float_pivots"] == meta["pivots"] and meta["bland_pivots"] == 0


# ---------------------------------------------------------------------------
# input errors


@pytest.mark.parametrize(
    "entry", [float("nan"), float("inf"), 1j, "abc", "1/0", np.int64(1), Fraction(1, 2), "1/2", 0.5, True]
)
def test_exact_mode_rejects_non_finite_or_unsupported_entries(entry):
    # exact mode takes Python ints only
    problem = FeasibilityProblem(a=[[entry]], b=[1], num_vars=1)
    with pytest.raises(InputError):
        solve_feasibility_exact(problem)


def test_float_mode_rejects_non_finite_entries():
    for a, b in (([[np.nan]], [1.0]), ([[1.0]], [np.inf])):
        with pytest.raises(InputError):
            solve_feasibility_float(FeasibilityProblem(a=a, b=b, num_vars=1))
    assert issubclass(InputError, ValueError)
