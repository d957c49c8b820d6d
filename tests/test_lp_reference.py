"""Float verdicts checked against an independent LP solver.

scipy's HiGHS (``linprog(method="highs")``) is the reference.  It is
imported here only; the package never imports ``scipy.optimize``.  A
decided float verdict must agree with HiGHS's status and pass its own
re-verification.  Statuses are compared, not phase-one optima: the
kernel bars artificials from re-entering, so on some infeasible LPs it
stops above HiGHS's optimum while its Farkas certificate stays valid.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from steercert import engine
from steercert.lp import FEASIBLE, INFEASIBLE, FeasibilityProblem, _pivot, solve_feasibility_float
from steercert.scenario import assemblage_from_povms, noisy_pauli_povm, pauli_povm, werner_state
from helpers import (
    assert_certificate_valid,
    assert_model_valid,
    feasible_instance,
    infeasible_instance,
)

RNG = np.random.default_rng(60613)
AXES = {2: ("x", "z"), 3: ("x", "y", "z")}


def highs_status(problem) -> str:
    a = np.asarray(problem.a, dtype=float).reshape(len(problem.b), problem.num_vars)
    b = np.asarray(problem.b, dtype=float)
    if a.shape[1] == 0:
        a = np.zeros((len(b), 1))  # linprog needs a column; a zero one changes nothing
    res = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return FEASIBLE if res.status == 0 else INFEASIBLE


def assert_agrees_with_highs(problem, verdict):
    assert verdict.status in (FEASIBLE, INFEASIBLE), verdict.meta
    assert verdict.status == highs_status(problem), verdict.meta
    if verdict.status == FEASIBLE:
        assert_model_valid(problem, verdict)
    else:
        assert_certificate_valid(problem, verdict)


def engine_lps(monkeypatch, question):
    """Every (problem, verdict) the engine's float LP calls make for ``question()``."""
    seen = []

    def recording(problem, **kwargs):
        verdict = solve_feasibility_float(problem, **kwargs)
        seen.append((problem, verdict))
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(engine, "solve_feasibility_float", recording)
        question()
    assert seen
    return seen


def test_random_instances_agree_with_highs():
    for _ in range(30):
        problem, _ = feasible_instance(RNG, RNG.integers(2, 8), RNG.integers(2, 12))
        assert_agrees_with_highs(problem, solve_feasibility_float(problem))
        problem = infeasible_instance(RNG, RNG.integers(2, 7), RNG.integers(2, 10))
        assert_agrees_with_highs(problem, solve_feasibility_float(problem))


@pytest.mark.parametrize("settings", [2, 3])
@pytest.mark.parametrize("offset", [-0.03, -0.01, 0.01, 0.03])
def test_engine_lps_agree_with_highs_across_the_threshold(monkeypatch, settings, offset):
    # canonical frames: LHS of Werner states at 1/sqrt(m) and joint
    # measurability of noisy Paulis at the same visibility
    p = 1.0 / math.sqrt(settings) + offset
    axes = AXES[settings]
    asm = assemblage_from_povms(werner_state(p), [pauli_povm(ax) for ax in axes])
    questions = (
        lambda: engine.lhs_feasibility_qubit(asm, mesh=162),
        lambda: engine.joint_measurability([noisy_pauli_povm(ax, p) for ax in axes], mesh=162),
    )
    expected = FEASIBLE if offset < 0 else INFEASIBLE
    for question in questions:
        lps = engine_lps(monkeypatch, question)
        for problem, verdict in lps:
            assert_agrees_with_highs(problem, verdict)
        assert lps[-1][1].status == expected


def test_zero_column_lps_agree_with_highs(monkeypatch):
    # X and Z tests share no deterministic state, so the PV LP has no columns
    asm = assemblage_from_povms(werner_state(0.5), [pauli_povm("x"), pauli_povm("z")])
    lps = engine_lps(monkeypatch, lambda: engine.pv_feasibility(asm, [pauli_povm("x"), pauli_povm("z")]))
    assert [problem.num_vars for problem, _ in lps] == [0]
    assert_agrees_with_highs(*lps[0])
    assert lps[0][1].status == INFEASIBLE

    empty = FeasibilityProblem(a=np.zeros((3, 0)), b=np.zeros(3), num_vars=0)
    assert_agrees_with_highs(empty, solve_feasibility_float(empty))
    # no rows either: w = () solves the empty system
    nothing = FeasibilityProblem(a=[], b=[], num_vars=0)
    assert_agrees_with_highs(nothing, solve_feasibility_float(nothing))


def test_degenerate_lps_agree_with_highs():
    # one nonzero right-hand side: almost every pivot is degenerate
    for _ in range(4):
        rows, cols = 30, 80
        a = RNG.normal(size=(rows, cols))
        for b in (np.r_[1.0, np.zeros(rows - 1)], a @ (np.arange(cols) < 2)):
            problem = FeasibilityProblem(a=a, b=b, num_vars=cols)
            assert_agrees_with_highs(problem, solve_feasibility_float(problem))


class _CountingNumpy:
    """numpy as the kernel sees it, counting Bland pricing calls."""

    def __init__(self):
        self.bland = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, a):
        self.bland += 1
        return np.flatnonzero(a)


def test_kernel_leaves_dantzig_cycle_through_bland_fallback(monkeypatch):
    # Beale's example: Dantzig's rule cycles through six degenerate bases
    a = np.array([
        [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
        [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    cost = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    m, n = a.shape
    full = np.hstack([a, np.eye(m)])  # barred columns, as artificials are
    basis = np.arange(m, dtype=np.intp)

    counting = _CountingNumpy()
    monkeypatch.setattr(_pivot, "np", counting)
    status, pivots, clean = _pivot.run_phase1(full, b, np.r_[cost, np.zeros(m)], basis, 1e-9, 1e-9, 200)
    assert status == _pivot.OPTIMAL
    assert counting.bland > 0 and pivots < 50

    reference = linprog(cost, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert clean[1] == pytest.approx(reference.fun, abs=1e-12)
    assert sorted(basis) == [0, 3, 5]
