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
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from steercert import engine
from steercert.lp import FEASIBLE, INFEASIBLE, FeasibilityProblem, _pivot, floating, solve_feasibility_float
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
        # an infeasible verdict's last master stops at its first separating
        # dual, and that certificate is valid on the master as HiGHS sees it
        assert lps[-1][1].meta["early_stop"] is (offset > 0)


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
    """numpy as the kernel sees it, counting factorizations of the basis."""

    def __init__(self):
        self.inverses = 0
        self.linalg = SimpleNamespace(inv=self._inv, LinAlgError=np.linalg.LinAlgError)

    def __getattr__(self, name):
        return getattr(np, name)

    def _inv(self, bmat):
        self.inverses += 1
        return np.linalg.inv(bmat)


def run_kernel(a, b, max_iter=None, separate=None):
    """The kernel on ``A w = b`` as ``floating.phase_one`` sets it up;
    ``separate(basis, y)``, if given, is its stopping test.

    Returns (full, b, cost, basis, status, pivots, clean) in the kernel's
    own terms: rows with b_i < 0 negated, y not yet signed back."""
    m, n = a.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    full = np.hstack([a * sign[:, None], np.eye(m)])
    b = b * sign
    cost = np.r_[np.zeros(n), np.ones(m)]
    basis = np.arange(n, n + m, dtype=np.intp)
    if max_iter is None:
        max_iter = 1000 + 50 * m + 2 * n
    extra = {} if separate is None else {"separate": lambda y: separate(basis, y)}
    status, pivots, clean = _pivot.run_phase1(full, b, cost, basis, max_iter, **extra)
    return full, b, cost, basis, status, pivots, clean


def assert_fresh(full, b, cost, basis, clean):
    """clean is, bit for bit, what one factorization of the returned basis gives."""
    binv = np.linalg.inv(full[:, basis])
    cb = cost[basis]
    xb = binv @ b
    y = cb @ binv
    np.testing.assert_array_equal(clean[0], xb)
    assert clean[1] == float(cb @ xb)
    np.testing.assert_array_equal(clean[2], y)


def test_kernel_returns_numbers_of_a_fresh_factorization():
    for _ in range(10):
        for problem in (
            feasible_instance(RNG, RNG.integers(2, 12), RNG.integers(2, 40))[0],
            infeasible_instance(RNG, RNG.integers(2, 12), RNG.integers(2, 40)),
        ):
            full, b, cost, basis, status, _, clean = run_kernel(problem.a, problem.b)
            assert status == _pivot.OPTIMAL
            assert_fresh(full, b, cost, basis, clean)
    # degenerate: the solution has 3 nonzeros among 400 columns, and phase
    # one takes hundreds of pivots (635 for this seed), so many update
    # windows pass
    rng = np.random.default_rng(1)
    a = rng.normal(size=(100, 400))
    w = np.zeros(400)
    w[rng.choice(400, 3, replace=False)] = 1.0 + rng.random(3)
    full, b, cost, basis, status, pivots, clean = run_kernel(a, a @ w)
    assert status == _pivot.OPTIMAL and pivots > 4 * _pivot.REFACTOR
    assert clean[1] <= floating.TOL
    assert_fresh(full, b, cost, basis, clean)


def singlet_master(monkeypatch):
    """(A, b) of the m = 3, mesh-642 singlet master: 24 x 5184, infeasible,
    74 pivots to its optimum."""
    asm = assemblage_from_povms(werner_state(1.0), [pauli_povm(ax) for ax in AXES[3]])
    (problem, verdict), = engine_lps(monkeypatch, lambda: engine.lhs_feasibility_qubit(asm, mesh=642))
    assert verdict.status == INFEASIBLE
    return np.asarray(problem.a).reshape(len(problem.b), problem.num_vars), np.asarray(problem.b)


def test_kernel_factorizes_once_per_window(monkeypatch):
    a, b = singlet_master(monkeypatch)
    counting = _CountingNumpy()
    monkeypatch.setattr(_pivot, "np", counting)
    full, b, cost, basis, status, pivots, clean = run_kernel(a, b)
    monkeypatch.undo()
    assert status == _pivot.OPTIMAL and pivots > _pivot.REFACTOR
    assert 2 <= counting.inverses <= pivots // _pivot.REFACTOR + 2
    assert_fresh(full, b, cost, basis, clean)


def separation_cases(monkeypatch):
    """(A, b) of LPs on which a stopping test gets asked: the singlet
    master, an m = 2 Werner master above the threshold, and random
    infeasible systems."""
    asm = assemblage_from_povms(werner_state(0.8), [pauli_povm(ax) for ax in AXES[2]])
    (problem, _), = engine_lps(monkeypatch, lambda: engine.lhs_feasibility_qubit(asm, mesh=162))
    cases = [singlet_master(monkeypatch), (np.asarray(problem.a), np.asarray(problem.b))]
    rng = np.random.default_rng(11)
    for _ in range(6):
        problem = infeasible_instance(rng, rng.integers(4, 12), rng.integers(20, 60))
        cases.append((np.asarray(problem.a, dtype=float), np.asarray(problem.b, dtype=float)))
    return cases


def test_separate_sees_fresh_duals_only_where_they_can_survive_a_lift(monkeypatch):
    consulted = 0
    for a, b in separation_cases(monkeypatch):
        asked = []
        full, b, cost, basis, *_ = run_kernel(a, b, separate=lambda basis, y: asked.append((basis.copy(), y.copy())))
        n = a.shape[1]
        for at, y in asked:
            # y is, bit for bit, what a factorization of that basis gives
            binv = np.linalg.inv(full[:, at])
            np.testing.assert_array_equal(y, cost[at] @ binv)
            z = float(cost[at] @ (binv @ b))
            rc_min = float((cost[:n] - y @ full[:, :n]).min())
            assert z + rc_min > 0.0 and rc_min < -_pivot.TOL
        consulted += len(asked)
    assert consulted > 0


def test_declining_separate_changes_nothing(monkeypatch):
    refactored = 0
    for a, b in separation_cases(monkeypatch):
        runs = []
        for separate in (None, lambda basis, y: False):
            counting = _CountingNumpy()
            monkeypatch.setattr(_pivot, "np", counting)
            runs.append((run_kernel(a, b, separate=separate), counting.inverses))
            monkeypatch.undo()
        (plain, plain_inverses), (declined, declined_inverses) = runs
        np.testing.assert_array_equal(plain[3], declined[3])  # basis
        assert plain[4:6] == declined[4:6]  # status, pivots
        for x, y in zip(plain[6], declined[6]):
            np.testing.assert_array_equal(x, y)
        # a test asked on an updated inverse gets a factorization of its own
        refactored += declined_inverses - plain_inverses
    assert refactored > 0


def test_accepting_separate_stops_with_fresh_numbers(monkeypatch):
    for a, b in separation_cases(monkeypatch):
        *_, status, pivots, _ = run_kernel(a, b)
        full, b, cost, basis, stopped, early, clean = run_kernel(a, b, separate=lambda basis, y: True)
        assert (status, stopped) == (_pivot.OPTIMAL, _pivot.SEPARATED)
        assert early < pivots
        assert_fresh(full, b, cost, basis, clean)


@pytest.mark.parametrize("max_iter", [0, 7, _pivot.REFACTOR, _pivot.REFACTOR + 13])
def test_kernel_stops_after_exactly_max_iter_pivots(monkeypatch, max_iter):
    a = RNG.normal(size=(40, 120))
    b = a @ (np.arange(120) < 2)
    counting = _CountingNumpy()
    monkeypatch.setattr(_pivot, "np", counting)
    full, b, cost, basis, status, pivots, clean = run_kernel(a, b, max_iter)
    monkeypatch.undo()
    assert (status, pivots) == (_pivot.ITERATION_LIMIT, max_iter)
    assert counting.inverses <= pivots // _pivot.REFACTOR + 2
    assert_fresh(full, b, cost, basis, clean)


def test_kernel_does_not_cycle_on_beales_example():
    # Beale's example: Dantzig's rule with a naive tie rule cycles through
    # six degenerate bases; the lexicographic ratio test leaves at once
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

    status, pivots, clean = _pivot.run_phase1(full, b, np.r_[cost, np.zeros(m)], basis, 200)
    assert status == _pivot.OPTIMAL
    assert pivots < 6

    reference = linprog(cost, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert clean[1] == pytest.approx(reference.fun, abs=1e-12)
    assert sorted(basis) == [0, 3, 5]

    # rows mixed by M: the start basis is then B0 = M, and ties broken on
    # the rows of B^-1 B0 retrace the path above pivot for pivot (on the
    # rows of B^-1 alone some of these take 5 pivots)
    for mix in np.random.default_rng(0).normal(size=(20, m, m)):
        mixed = np.hstack([mix @ a, np.eye(m)])
        start = np.arange(m, dtype=np.intp)
        got = _pivot.run_phase1(mixed, mix @ b, np.r_[cost, np.zeros(m)], start, 200)
        assert got[:2] == (status, pivots) and sorted(start) == sorted(basis)


def test_degenerate_systems_stay_under_a_pivot_ceiling():
    # 60 x 200 systems whose solution has 1-3 nonzeros, on random or on
    # leading columns: almost every pivot is degenerate.  The lexicographic
    # ratio test takes at most 501 pivots on these 40, and Dantzig's rule
    # with a visited-basis memory and a Bland fallback up to 920, so the
    # ceiling tells the two apart.
    rng = np.random.default_rng(7)
    for i in range(40):
        a = rng.normal(size=(60, 200))
        k = 1 + i % 3
        w = np.zeros(200)
        support = rng.choice(200, k, replace=False) if i % 2 else np.arange(k)
        w[support] = 1.0 + rng.random(k)
        _, _, _, _, status, pivots, clean = run_kernel(a, a @ w)
        assert status == _pivot.OPTIMAL and clean[1] <= floating.TOL
        assert pivots <= 600


def test_a_warm_start_ends_with_the_cold_verdict():
    # the basis a cold solve stands at after 20 pivots is primal feasible
    # and holds structural columns; started from it, the solve must reach
    # the cold verdict, on degenerate systems as above and on infeasible ones
    rng = np.random.default_rng(11)
    for i in range(12):
        if i % 3 == 2:
            problem = infeasible_instance(rng, 30, 90)
        else:
            a = rng.normal(size=(60, 200))
            w = np.zeros(200)
            w[rng.choice(200, 1 + i % 3, replace=False)] = 1.0 + rng.random(1 + i % 3)
            problem = FeasibilityProblem(a=a, b=a @ w, num_vars=200)
        a, b = np.asarray(problem.a, dtype=float), np.asarray(problem.b, dtype=float)
        *_, start, status, _, clean = run_kernel(a, b, max_iter=20)
        assert status == _pivot.ITERATION_LIMIT and (start < a.shape[1]).any()
        assert clean[0].min() >= -1e-12  # x_B of the start basis
        cold = solve_feasibility_float(problem)
        warm = solve_feasibility_float(problem, basis=start)
        assert warm.status == cold.status in (FEASIBLE, INFEASIBLE)
        if warm.is_feasible:
            assert_model_valid(problem, warm)
        else:
            assert_certificate_valid(problem, warm)
