from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from steercert import engine, linalg
from steercert.boxworld import (
    GptAssemblage,
    mix_assemblages,
    prbox_assemblage,
    uniform_assemblage,
)
from steercert.engine import (
    DEFAULT_MESH,
    DeterministicStrategy,
    deterministic_bloch_set,
    joint_measurability,
    lhs_feasibility_boxworld,
    lhs_feasibility_qubit,
    pv_feasibility,
    threshold_scan,
)
from steercert.errors import InputError, NonMonotoneFamilyError
from steercert.lp import UNDECIDED, FeasibilityVerdict
from steercert.scenario import (
    Assemblage,
    Povm,
    assemblage_from_povms,
    noisy_pauli_povm,
    pauli_povm,
    singlet,
    werner_state,
)
from helpers import (
    assert_box_verdict_exact,
    assert_parents_rebuild,
    assert_pv_certificate,
    assert_separates_on_ball,
    box_lp,
    deterministic_box,
    jm_rows,
    jm_touch,
    lhs_rows,
    lhs_touch,
    lifted_prbox,
    random_qubit_assemblage,
    random_unit_vector,
    sandwich_verdict,
)

RNG = np.random.default_rng(55101)

XZ = [pauli_povm("x"), pauli_povm("z")]


def werner_assemblage(p, axes=("x", "z")):
    return assemblage_from_povms(werner_state(p), [pauli_povm(ax) for ax in axes])


def test_shape_strategies_lexicographic_and_cap():
    strategies, touch = engine._shape_strategies((2, 2))
    assert strategies == tuple(map(DeterministicStrategy, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    np.testing.assert_array_equal(touch, [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]])
    assert not touch.flags.writeable
    with pytest.raises(InputError, match="exceed the enumeration cap"):
        engine._shape_strategies((4,) * 10)
    mixed, touch = engine._shape_strategies((1, 3))
    assert [s.responses for s in mixed] == [(0, 0), (0, 1), (0, 2)]
    np.testing.assert_array_equal(touch, [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])


@pytest.mark.parametrize(
    "question, asm",
    [
        (lhs_feasibility_qubit, prbox_assemblage()),
        (lhs_feasibility_boxworld, assemblage_from_povms(singlet(), [pauli_povm("z")])),
    ],
    ids=["box-to-qubit", "qubit-to-box"],
)
def test_wrong_assemblage_type_is_an_input_error(question, asm):
    with pytest.raises(InputError, match="^expected a"):
        question(asm)


def test_werner_low_weight_is_feasible_with_tight_model():
    asm = werner_assemblage(0.4)
    verdict = lhs_feasibility_qubit(asm, mesh=162)
    assert verdict.is_feasible
    model = verdict.lhs_model
    assert model.max_deviation(asm) <= 1e-8
    assert abs(model.total_weight() - 1.0) <= 1e-8
    assert np.min(model.weights) >= -1e-12
    for omega in model.hidden_states:
        linalg.require_psd(omega)
        assert abs(omega.trace().real - 1.0) < 1e-9


@pytest.mark.parametrize("axes", [("x", "z"), ("x", "y", "z")], ids=["m2", "m3"])
def test_feasible_qubit_verdicts_ship_one_weight_per_strategy(axes):
    # model is the strategy weights p_lam, not the master LP's columns
    m = len(axes)
    lhs = lhs_feasibility_qubit(werner_assemblage(0.5, axes))
    pv = pv_feasibility(werner_assemblage(0.0, axes), [pauli_povm(axes[0])])
    for verdict in (lhs, pv):
        assert verdict.is_feasible
        assert np.shape(verdict.model) == (2**m,)
        assert np.array_equal(verdict.model, verdict.lhs_model.weights)
    jm = joint_measurability([noisy_pauli_povm(ax, 0.5) for ax in axes])
    assert jm.is_feasible and np.shape(jm.model) == (2**m,)
    halved_traces = [np.trace(g).real / 2 for g in jm.parent_effects]
    np.testing.assert_allclose(jm.model, halved_traces, rtol=0, atol=1e-15)
    assert abs(sum(jm.model) - 1.0) <= 1e-8


def test_lhs_model_deviation_matches_a_per_block_rebuild_after_moving_weight():
    asm = werner_assemblage(0.5, ("x", "y", "z"))
    model = lhs_feasibility_qubit(asm).lhs_model
    i, j = np.argsort(model.weights)[-2:]
    d = model.weights[i] / 3
    weights = model.weights.copy()
    weights[i] -= d
    weights[j] += d
    moved = dataclasses.replace(model, weights=weights)
    # block (x, a) rebuilt one strategy at a time
    dev = 0.0
    for x in range(asm.settings):
        for a in range(asm.outcomes):
            block = np.zeros((2, 2), dtype=complex)
            for w, omega, strat in zip(moved.weights, moved.hidden_states, moved.strategies):
                if strat.responses[x] == a:
                    block = block + w * omega
            dev = max(dev, float(np.abs(block - asm.block(x, a)).max()))
    assert dev > 1e-3
    assert abs(moved.max_deviation(asm) - dev) <= 1e-15
    assert model.max_deviation(asm) <= 1e-8


def test_singlet_matched_paulis_is_infeasible_with_witness_certificate():
    asm = werner_assemblage(1.0)
    verdict = lhs_feasibility_qubit(asm, mesh=162)
    assert verdict.is_infeasible
    # re-verify the certificate as a steering witness from first principles:
    # every deterministic strategy on every qubit state must score >= 0
    # while the assemblage scores < 0.
    c = np.asarray(verdict.certificate, dtype=float)

    def rows_for(blocks):
        rows = []
        for x in range(asm.settings):
            for a in range(asm.outcomes):
                t, rx, ry, rz = linalg.bloch_components(blocks[(x, a)])
                rows.extend([t, rx, ry, rz])
        return np.asarray(rows)

    assert c @ rows_for(asm.blocks) < -1e-10
    for strat in itertools.product(range(2), repeat=2):
        for _ in range(40):
            n = random_unit_vector(RNG)
            omega = linalg.bloch_state(n)
            blocks = {
                (x, a): (omega if strat[x] == a else np.zeros((2, 2)))
                for x in range(2)
                for a in range(2)
            }
            assert c @ rows_for(blocks) >= -1e-9


def master_pivots(monkeypatch, question, keep_separate=True):
    """(verdict, pivots of each master) of ``question()``; without
    ``keep_separate`` the masters are solved with no stopping test."""
    pivots = []
    solve = engine.solve_feasibility_float

    def recording(problem, separate=None, basis=None):
        verdict = solve(problem, separate=separate if keep_separate else None, basis=basis)
        pivots.append(verdict.meta["pivots"])
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(engine, "solve_feasibility_float", recording)
        verdict = question()
    return verdict, pivots


def test_singlet_master_stops_at_its_first_separating_dual(monkeypatch):
    # the m = 3, mesh-642 singlet master takes 64 pivots to its optimum
    asm = werner_assemblage(1.0, ("x", "y", "z"))
    verdict, pivots = master_pivots(monkeypatch, lambda: lhs_feasibility_qubit(asm, mesh=642))
    assert verdict.is_infeasible and verdict.meta["master"]["early_stop"] is True
    assert len(pivots) == 1 and pivots[0] <= 20
    c = np.asarray(verdict.certificate, dtype=float)
    _, touch = engine._shape_strategies((2,) * 3)
    rhs = engine._assemblage_rhs(asm)
    assert engine._exact_check(touch, c, rhs)
    assert verdict.meta["margin"] == -float(c @ rhs) > 0.0
    assert_separates_on_ball(c, lhs_rows(asm), lhs_touch(3, 2))


@pytest.mark.parametrize("settings", [2, 3])
def test_feasible_verdicts_pivot_as_without_a_stopping_test(monkeypatch, settings):
    # the threshold grid of ``werner-scan``: below the threshold every
    # master's dual is declined, so each master pivots exactly as before
    axes = ("x", "z") if settings == 2 else ("x", "y", "z")
    threshold = 1.0 / math.sqrt(settings)
    for p in [0.25, 0.4, *np.arange(0.5, threshold, 0.05), threshold - 1e-4]:
        question = lambda: lhs_feasibility_qubit(werner_assemblage(float(p), axes))
        verdict, pivots = master_pivots(monkeypatch, question)
        plain, plain_pivots = master_pivots(monkeypatch, question, keep_separate=False)
        assert verdict.is_feasible and plain.is_feasible
        assert verdict.meta["master"]["early_stop"] is False
        assert pivots == plain_pivots
        np.testing.assert_array_equal(verdict.model, plain.model)


@pytest.mark.parametrize("p, feasible", [(0.4, True), (0.72, False), (0.85, False)])
def test_every_seed_size_gives_the_same_verdict(p, feasible):
    # the seed mesh only sets where column generation starts
    for mesh in (12, 42, 162, 642):
        verdict = lhs_feasibility_qubit(werner_assemblage(p), mesh=mesh)
        assert verdict.is_feasible is feasible and not verdict.is_undecided
        assert verdict.meta["mesh_size"] == mesh


@pytest.mark.parametrize(
    "settings, offset, mesh",
    [
        *(
            pytest.param(settings, offset, DEFAULT_MESH, id=f"{offset}-{settings}")
            for offset in (-1e-4, 1e-4)
            for settings in (2, 3)
        ),
        # its 11th master is nearly degenerate: every basic weight must still
        # come out nonnegative
        pytest.param(3, -1e-6, 642, id="-1e-06-3-mesh642"),
        # its 15th master offers a pivot of 2e-8 in a column of size 1e6
        # that is roundoff of the updated basis inverse; taken, it makes
        # the basis singular
        pytest.param(3, -1e-6, 162, id="-1e-06-3-mesh162"),
        # 15 masters: 1,013 pivots when each starts from the all-artificial
        # basis, 116 when each starts from the final basis of the one before
        pytest.param(2, 1e-6, 162, id="1e-06-2-mesh162"),
        # this close, masters end with phase-one z a hair above TOL: each is
        # an ordinary infeasible master, shifted and checked exactly or priced
        *(
            pytest.param(settings, offset, mesh, id=f"{offset}-{settings}-mesh{mesh}")
            for offset in (-1e-7, 1e-7)
            for settings in (2, 3)
            for mesh in (12, 162, 642)
        ),
    ],
)
def test_verdicts_a_hair_from_the_threshold_are_decided(settings, offset, mesh):
    axes = ("x", "z") if settings == 2 else ("x", "y", "z")
    p = 1.0 / math.sqrt(settings) + offset
    asm = werner_assemblage(p, axes)
    lhs = lhs_feasibility_qubit(asm, mesh=mesh)
    povms = [noisy_pauli_povm(ax, p) for ax in axes]
    jm = joint_measurability(povms, mesh=mesh)
    if offset < 0:
        assert lhs.is_feasible and jm.is_feasible
        assert lhs.lhs_model.max_deviation(asm) <= 1e-8
        assert_parents_rebuild(jm.parent_effects, povms)
    else:
        assert lhs.is_infeasible and jm.is_infeasible
        assert_separates_on_ball(lhs.certificate, lhs_rows(asm), lhs_touch(asm.settings, asm.outcomes))
        assert_separates_on_ball(jm.certificate, jm_rows(povms), jm_touch(povms))
    # the seed mesh alone cannot decide this close: pricing added columns
    assert lhs.meta["rounds"] > 1 and jm.meta["rounds"] > 1
    # every master after the first starts from the final basis of the one
    # before: these verdicts take 85-302 pivots in all, against 482-2,933
    # when every master starts from the all-artificial basis
    assert "cold_retry" not in lhs.meta and "cold_retry" not in jm.meta
    assert lhs.meta["pivots"] <= 400 and jm.meta["pivots"] <= 400


def test_verdict_meta_counts_the_pivots_of_every_master(monkeypatch):
    asm = werner_assemblage(1.0 / math.sqrt(2) + 1e-4)
    verdict, pivots = master_pivots(monkeypatch, lambda: lhs_feasibility_qubit(asm))
    assert verdict.is_infeasible and verdict.meta["rounds"] == len(pivots) > 1
    assert verdict.meta["pivots"] == sum(pivots) and "cold_retry" not in verdict.meta


@pytest.mark.parametrize("question", ["lhs", "jm"])
def test_undecided_warm_column_generation_is_run_again_cold(monkeypatch, question):
    # every master that starts from an earlier master's basis is made to
    # fail; the verdict then comes from the run with every master cold
    p = 1.0 / math.sqrt(2) + 1e-4
    if question == "lhs":
        ask = lambda: lhs_feasibility_qubit(werner_assemblage(p))
    else:
        ask = lambda: joint_measurability([noisy_pauli_povm(ax, p) for ax in ("x", "z")])
    solve = engine.solve_feasibility_float
    warm, cold = [], []

    def failing_when_warm(problem, separate=None, basis=None):
        if not np.array_equal(basis, np.arange(problem.num_vars, problem.num_vars + len(problem.b))):
            warm.append(problem)
            meta = {"mode": "float", "pivots": 7, "early_stop": False, "reason": "singular basis"}
            return FeasibilityVerdict(UNDECIDED, meta=meta)
        verdict = solve(problem, separate=separate, basis=basis)
        cold.append(verdict.meta["pivots"])
        return verdict

    monkeypatch.setattr(engine, "solve_feasibility_float", failing_when_warm)
    verdict = ask()
    assert len(warm) == 1  # the second master, the first one started warm
    assert verdict.is_infeasible and verdict.meta["rounds"] == len(cold) - 1 > 1
    assert verdict.meta["cold_retry"] == "master LP undecided: singular basis"
    # the warm run's two masters, the second failing at 7 pivots, then
    # every master of the cold run
    assert verdict.meta["pivots"] == sum(cold) + 7


@pytest.mark.parametrize(
    "mesh",
    [3, 0, -12, 12.0, "162", True, (12, 42)],
    ids=["three", "zero", "negative", "float", "string", "bool", "pair"],
)
def test_mesh_must_be_an_integer_seed_size(mesh):
    with pytest.raises(InputError):
        lhs_feasibility_qubit(werner_assemblage(0.4), mesh=mesh)
    with pytest.raises(InputError):
        joint_measurability(XZ, mesh=mesh)


def test_certificate_that_fails_the_exact_ball_check_is_undecided(monkeypatch):
    verdict = lhs_feasibility_qubit(werner_assemblage(0.85))
    assert verdict.is_infeasible and verdict.meta["margin"] > 0
    assert "float64" in verdict.meta["certified"]
    monkeypatch.setattr(engine, "_exact_check", lambda *args: False)
    verdict = lhs_feasibility_qubit(werner_assemblage(0.85))
    assert verdict.is_undecided
    assert verdict.meta["reason"] == "certificate failed exact check"


def test_jm_certificate_that_fails_the_exact_ball_check_is_undecided(monkeypatch):
    # joint measurability goes through the same exact ball check as LHS
    noisy = [noisy_pauli_povm(ax, 0.85) for ax in ("x", "z")]
    verdict = joint_measurability(noisy)
    assert verdict.is_infeasible and "float64" in verdict.meta["certified"]
    monkeypatch.setattr(engine, "_exact_check", lambda *args: False)
    verdict = joint_measurability(noisy)
    assert verdict.is_undecided
    assert verdict.meta["reason"] == "certificate failed exact check"


def fraction_check(touch, c, b, finite=None) -> bool:
    """Reference for ``engine._exact_check``, in Fractions: c.b < 0, and
    for every strategy alpha + beta.n >= 0 on the ball or at each listed n."""
    cf = [Fraction(float(v)) for v in c]
    if sum(ci * Fraction(float(bi)) for ci, bi in zip(cf, b)) >= 0:
        return False
    for row in np.asarray(touch):
        alpha, *beta = (sum(cf[4 * r + i] for r in np.flatnonzero(row)) for i in range(4))
        if finite is None:
            if alpha < 0 or alpha * alpha < sum(p * p for p in beta):
                return False
        elif any(alpha + sum(p * Fraction(float(v)) for p, v in zip(beta, n)) < 0 for n in finite):
            return False
    return True


ONE_BLOCK = np.array([[1.0]])
ULP_BELOW_5 = float(np.nextafter(5.0, 0.0))
N_FINITE = np.array([[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]])
# beta.n takes 1e-200 * 1e-200, which float64 rounds to 0
N_TINY = np.array([[1.0, 1e-200, 0.0]])
X_AXIS = np.array([[1.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "c, b, finite, expected",
    [
        # on the ball alpha^2 = |beta|^2 is the boundary
        ([5.0, 3.0, 4.0, 0.0], [-1.0, 0.0, 0.0, 0.0], None, True),
        ([ULP_BELOW_5, 3.0, 4.0, 0.0], [-1.0, 0.0, 0.0, 0.0], None, False),
        # on a finite set alpha + beta.n = 0 at n = (0.6, 0.8, 0) as stored
        ([-0.6, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], N_FINITE, True),
        ([float(np.nextafter(-0.6, -1.0)), 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], N_FINITE, False),
        # the same certificate is negative on the ball
        ([-0.6, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], None, False),
        # float64 squares overflow to inf or underflow to 0 here
        ([1e300, 1e300, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], None, True),
        ([1e300, 1e300, 5e-324, 0.0], [-1.0, 0.0, 0.0, 0.0], None, False),
        ([5e-324, 0.0, 5e-324, 0.0], [-1.0, 0.0, 0.0, 0.0], None, True),
        ([5e-324, 0.0, 1e-323, 0.0], [-1.0, 0.0, 0.0, 0.0], None, False),
        ([1e300, -1e300, 1e-200, 0.0], [-1.0, 0.0, 0.0, 0.0], N_TINY, True),
        ([1e300, -1e300, -1e-200, 0.0], [-1.0, 0.0, 0.0, 0.0], N_TINY, False),
        ([5e-324, -5e-324, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], X_AXIS, True),
        ([5e-324, -1e-323, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], X_AXIS, False),
        # c.b must be negative, also when it underflows in float64
        ([5.0, 3.0, 4.0, 0.0], [0.0, 0.0, 0.0, 0.0], None, False),
        ([5e-324, 0.0, 0.0, 0.0], [-5e-324, 0.0, 0.0, 0.0], None, True),
    ],
)
def test_exact_check_decides_the_boundary_exactly(c, b, finite, expected):
    assert fraction_check(ONE_BLOCK, c, b, finite) is expected
    assert engine._exact_check(ONE_BLOCK, np.array(c), np.array(b), finite) is expected


def test_exact_check_agrees_with_fractions_on_engine_certificates():
    # near-boundary shifts of real certificates, on the ball and on the
    # deterministic states of a PV question
    touch = np.zeros((4, 4))
    for row, blocks in zip(touch, lhs_touch(2, 2)):
        row[blocks] = 1.0
    high, low = werner_assemblage(0.85), werner_assemblage(0.5)
    z_states = deterministic_bloch_set([pauli_povm("z")])
    cases = [
        (lhs_feasibility_qubit(high), lhs_rows(high), None),
        (pv_feasibility(low, [pauli_povm("z")]), lhs_rows(low), z_states),
    ]
    for verdict, b, finite in cases:
        assert verdict.is_infeasible
        for shift in (0.0, -1e-13, -1e-9, 1e-13):
            c = np.array(verdict.certificate, dtype=float)
            c[0::4] += shift
            assert engine._exact_check(touch, c, b, finite) is fraction_check(touch, c, b, finite)
        assert engine._exact_check(touch, np.array(verdict.certificate, dtype=float), b, finite)


def test_sandwich_does_not_refute_a_feasible_assemblage_near_the_boundary():
    # a feasible assemblage the sandwich calls infeasible when its outer
    # hull is scaled by the farthest facet, which leaves part of the ball out
    asm = random_qubit_assemblage(np.random.default_rng(1017400), 3)
    verdict = lhs_feasibility_qubit(asm, mesh=42)
    assert verdict.is_feasible and verdict.lhs_model.max_deviation(asm) <= 1e-8
    assert min(np.linalg.eigvalsh(s).min() for s in verdict.lhs_model.hidden_states) >= 0.0
    assert sandwich_verdict(lhs_rows(asm), lhs_touch(3, 2), 1.0) != "infeasible"


def test_round_limit_is_a_named_undecided(monkeypatch):
    monkeypatch.setattr(engine, "MAX_ROUNDS", 1)
    verdict = joint_measurability([noisy_pauli_povm(ax, 0.7072) for ax in ("x", "z")], mesh=12)
    assert verdict.is_undecided
    assert verdict.meta["reason"] == "round limit" and verdict.meta["rounds"] == 1


def test_feasible_set_is_convex():
    a1 = werner_assemblage(0.30)
    a2 = werner_assemblage(0.55)
    lam = 0.37
    mixed = Assemblage(lam * a1.blocks + (1 - lam) * a2.blocks)
    assert lhs_feasibility_qubit(mixed, mesh=162).is_feasible


def test_three_setting_assemblage():
    asm = werner_assemblage(0.5, axes=("x", "y", "z"))
    assert lhs_feasibility_qubit(asm, mesh=162).is_feasible
    asm = werner_assemblage(0.7, axes=("x", "y", "z"))
    assert lhs_feasibility_qubit(asm, mesh=162).is_infeasible


def test_verdict_serialization():
    import json

    verdict = lhs_feasibility_qubit(werner_assemblage(0.4), mesh=42)
    doc = verdict.to_dict()
    json.dumps(doc)
    assert doc["status"] == "feasible" and "lhs_model" in doc
    assert doc["meta"]["mesh_size"] == 42
    assert {"rounds", "columns", "margin"} <= doc["meta"].keys()
    assert not {"inflate", "inner", "outer"} & doc["meta"].keys()


# ---------------------------------------------------------------------------
# box-world engine

def test_prbox_is_infeasible_with_exact_certificate():
    verdict = lhs_feasibility_boxworld(prbox_assemblage())
    assert verdict.is_infeasible
    c = verdict.certificate
    assert all(isinstance(v, Fraction) for v in c)
    # re-verify exactly: rows are the stacked tables of each (x, a) entry
    asm = prbox_assemblage()

    def rows_for(entry_table):
        rows = []
        for x in range(2):
            for a in range(2):
                cell = entry_table[(x, a)]
                for y in range(2):
                    for b in range(2):
                        rows.append(cell.get((y, b), Fraction(0)))
        return rows

    rhs = {
        (x, a): {
            (y, b): asm.weight(x, a) * asm.state(x, a).prob(y, b)
            for y in range(2)
            for b in range(2)
        }
        for x in range(2)
        for a in range(2)
    }
    assert sum(ci * ri for ci, ri in zip(c, rows_for(rhs))) < 0
    for alice in itertools.product(range(2), repeat=2):
        for bob in itertools.product(range(2), repeat=2):
            col = {
                (x, a): {
                    (y, b): Fraction(1)
                    if alice[x] == a and bob[y] == b
                    else Fraction(0)
                    for y in range(2)
                    for b in range(2)
                }
                for x in range(2)
                for a in range(2)
            }
            assert sum(ci * ri for ci, ri in zip(c, rows_for(col))) >= 0


def test_uniform_box_is_feasible_with_exact_model():
    verdict = lhs_feasibility_boxworld(uniform_assemblage())
    assert verdict.is_feasible
    assert verdict.lhs_model is not None  # reconstruction was verified exactly


def test_isotropic_box_boundary():
    half = mix_assemblages(Fraction(1, 2), prbox_assemblage(), uniform_assemblage())
    assert lhs_feasibility_boxworld(half).is_feasible
    above = mix_assemblages(
        Fraction(1, 2) + Fraction(1, 1000), prbox_assemblage(), uniform_assemblage()
    )
    assert lhs_feasibility_boxworld(above).is_infeasible


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (4, 2, 4, 2)])
def test_larger_uniform_boxes_are_feasible(shape):
    asm = uniform_assemblage(*shape)
    verdict = lhs_feasibility_boxworld(asm)
    assert verdict.is_feasible
    assert_box_verdict_exact(asm, verdict)


@pytest.mark.parametrize("lam, feasible", [(Fraction(1, 2), True), (Fraction(51, 100), False)])
def test_lifted_prbox_mixture_threshold_on_4242(lam, feasible):
    asm = mix_assemblages(lam, lifted_prbox(4, 4), uniform_assemblage(4, 2, 4, 2))
    verdict = lhs_feasibility_boxworld(asm)
    assert verdict.is_feasible is feasible
    assert_box_verdict_exact(asm, verdict)


def _local_3322():
    first = deterministic_box((0, 1, 2), (0, 1), a_outcomes=3)
    second = deterministic_box((2, 2, 0), (1, 1), a_outcomes=3)
    mixed = mix_assemblages(Fraction(1, 3), first, second)
    return mix_assemblages(Fraction(2, 5), mixed, uniform_assemblage(3, 3, 2, 2))


@pytest.mark.parametrize(
    "asm",
    [
        mix_assemblages(Fraction(1, 2), prbox_assemblage(), uniform_assemblage()),
        mix_assemblages(Fraction(1, 2), lifted_prbox(3, 3), uniform_assemblage(3, 2, 3, 2)),
        _local_3322(),
    ],
    ids=["2222", "3232", "3322"],
)
def test_box_model_deviation_catches_moved_weight(asm):
    verdict = lhs_feasibility_boxworld(asm)
    assert verdict.is_feasible
    model = verdict.lhs_model
    dev = model.max_deviation(asm)
    assert dev == 0 and isinstance(dev, Fraction)
    # distinct columns differ by 1 in some row, so moving d from one
    # support pair to another leaves a deviation of exactly d
    support = [k for k, w in enumerate(model.weights) if w]
    i, j = support[:2]
    d = model.weights[i] / 2
    weights = list(model.weights)
    weights[i] -= d
    weights[j] += d
    moved = dataclasses.replace(model, weights=tuple(weights))
    assert moved.max_deviation(asm) == d > 0
    # swapping Bob's strategies between two support pairs that differ on
    # both sides: the row (x, lam_A(x), y, lam_B(y)) where both differ
    # loses the first weight
    i, j = next(
        (i, j)
        for i, j in itertools.combinations(support, 2)
        if model.strategies[i] != model.strategies[j] and model.hidden_states[i] != model.hidden_states[j]
    )
    bob = list(model.hidden_states)
    bob[i], bob[j] = bob[j], bob[i]
    swapped = dataclasses.replace(model, hidden_states=tuple(bob))
    assert swapped.max_deviation(asm) >= model.weights[i] > 0


@pytest.mark.parametrize(
    "alice, bob, a_outcomes, b_outcomes",
    [((0, 1), (2, 0, 1), 2, 3), ((1, 0, 1), (2, 0), 2, 3), ((2, 0), (1, 1, 0), 3, 2)],
    ids=["2233", "3223", "2332"],
)
def test_box_lp_is_the_reference_lp(monkeypatch, alice, bob, a_outcomes, b_outcomes):
    # the engine builds its LP by a Kronecker product of touch matrices;
    # it must be the lexicographic (x, a, y, b) x (Alice, Bob) LP row for
    # row, posed on the integer counts: den times the reference right-hand side
    shape = (len(alice), a_outcomes, len(bob), b_outcomes)
    asm = mix_assemblages(
        Fraction(2, 3), deterministic_box(alice, bob, a_outcomes, b_outcomes), uniform_assemblage(*shape)
    )
    captured = []
    solve = engine.solve_feasibility_exact
    monkeypatch.setattr(engine, "solve_feasibility_exact", lambda p: captured.append(p) or solve(p))
    verdict = lhs_feasibility_boxworld(asm)
    reference = box_lp(asm)
    (problem,) = captured
    assert problem.num_vars == reference.num_vars
    assert len(problem.a) == len(reference.a)
    for row, want in zip(problem.a, reference.a):
        assert list(row) == want and all(type(v) is int for v in row)
    assert all(type(v) is int for v in problem.b)
    assert problem.b == [asm.den * v for v in reference.b]
    assert verdict.is_feasible
    assert_box_verdict_exact(asm, verdict)


@pytest.mark.parametrize(
    "gap",
    [Fraction(1, 2**70 + 1), Fraction(1, 3**700)],
    ids=["above-2^64", "beyond-float64"],
)
@pytest.mark.parametrize("side", [-1, 1])
def test_boxes_with_huge_denominators_are_decided_exactly(gap, side):
    # the counts' common denominator passes 2^64, or float64's range
    asm = mix_assemblages(Fraction(1, 2) + side * gap, prbox_assemblage(), uniform_assemblage())
    assert asm.den > 2**64
    verdict = lhs_feasibility_boxworld(asm)
    assert verdict.is_feasible is (side < 0)
    assert_box_verdict_exact(asm, verdict)
    # counts beyond float64's range leave no float guess, as any b out of
    # range does (tests/test_lp_exact.py); Bland's rule decides from scratch
    overflow = gap.denominator > 2**1024
    assert (verdict.meta["fallback"] == "float overflow") is overflow
    assert verdict.meta["guided"] is (not overflow and side < 0)


def test_local_box_with_a_huge_denominator_is_feasible():
    weight = Fraction(2**64 + 1, 2**66 + 3)
    asm = mix_assemblages(weight, _local_3322(), uniform_assemblage(3, 3, 2, 2))
    assert asm.den > 2**64
    verdict = lhs_feasibility_boxworld(asm)
    assert verdict.is_feasible
    assert_box_verdict_exact(asm, verdict)


def test_exact_box_threshold_bisection():
    def family(lam):
        return mix_assemblages(lam, prbox_assemblage(), uniform_assemblage())

    feas, infeas = threshold_scan(
        family, lhs_feasibility_boxworld, Fraction(0), Fraction(1), Fraction(1, 256)
    )
    assert feas == Fraction(1, 2)
    assert infeas is not None and Fraction(0) < infeas - feas <= Fraction(1, 256)


# ---------------------------------------------------------------------------
# predetermined values

def test_deterministic_bloch_set_shapes():
    det = deterministic_bloch_set([pauli_povm("z")])
    assert det.shape == (2, 3)
    np.testing.assert_allclose(np.abs(det[:, 2]), [1.0, 1.0], atol=1e-12)

    det = deterministic_bloch_set(XZ)
    assert det.shape == (0, 3)  # no state answers both x and z deterministically

    det = deterministic_bloch_set([noisy_pauli_povm("z", 0.9)])
    assert det.shape == (0, 3)  # noisy effects are never certain

    trivial = Povm(label="coin", effects=(linalg.I2, np.zeros((2, 2))))
    assert deterministic_bloch_set([trivial]) is None  # unconstrained

    # antiparallel axes pose the same question: both poles, each listed once
    det = deterministic_bloch_set([pauli_povm("z"), pauli_povm([0.0, 0.0, -1.0])])
    assert det.shape == (2, 3)
    np.testing.assert_allclose(np.sort(det[:, 2]), [-1.0, 1.0], atol=1e-12)

    # a visibility within tol of 1 still counts as certain at the poles
    det = deterministic_bloch_set([noisy_pauli_povm("z", 1.0 - 1e-10)])
    assert det.shape == (2, 3)

    # axes 1e-5 rad apart: each pole scores within 1e-9 of certain on the
    # other test, but no state answers both tests with certainty
    near = [pauli_povm("z"), pauli_povm([1e-5, 0.0, 1.0])]
    assert deterministic_bloch_set(near).shape == (0, 3)
    asm = assemblage_from_povms(singlet(), near)
    assert pv_feasibility(asm, near, mesh=162).is_infeasible


def reference_bloch_set(tests):
    """``deterministic_bloch_set`` one candidate and one axis at a time."""
    tol = engine.CERTAINTY_TOL
    comps = linalg.bloch_components(np.array([e for povm in tests for e in povm.effects])) / 2.0
    axes = [c[1:] / np.linalg.norm(c[1:]) for c in comps if np.linalg.norm(c[1:]) > tol]
    if not axes and all(min(abs(c[0]), abs(c[0] - 1.0)) <= tol for c in comps):
        return None
    points = []
    for n in (sign * a for a in axes for sign in (1.0, -1.0)):
        aligned = all(min(np.linalg.norm(n - a), np.linalg.norm(n + a)) <= tol for a in axes)
        valued = all(min(abs(v), abs(v - 1.0)) <= tol for v in (c[0] + c[1:] @ n for c in comps))
        if aligned and valued and all(np.linalg.norm(n - p) > tol for p in points):
            points.append(n)
    return np.asarray(points).reshape(-1, 3)


def test_deterministic_bloch_set_matches_a_per_candidate_reference():
    # repeated, antiparallel, nearly parallel and noisy axes, and trivial tests
    coin = Povm(label="coin", effects=(linalg.I2, np.zeros((2, 2))))
    for _ in range(300):
        base = random_unit_vector(RNG)
        tests = []
        for _ in range(RNG.integers(1, 5)):
            axis = [
                base,
                -base,
                base + 1e-10 * RNG.normal(size=3),
                base + 1e-8 * RNG.normal(size=3),
                random_unit_vector(RNG),
            ][RNG.integers(5)]
            eta = 1.0 - float(RNG.choice([0.0, 1e-11, 1e-4]))
            tests.append(noisy_pauli_povm(tuple(axis), eta) if eta < 1.0 else pauli_povm(tuple(axis)))
        if RNG.random() < 0.1:
            tests.append(coin)
        got, want = deterministic_bloch_set(tests), reference_bloch_set(tests)
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape
            # norms summed in another order: unit vectors may differ by a few ulps
            np.testing.assert_allclose(got, want, rtol=0.0, atol=8 * np.finfo(float).eps)
    assert deterministic_bloch_set([coin]) is None and reference_bloch_set([coin]) is None


def test_seed_mesh_is_built_once_per_size(monkeypatch):
    calls = []
    build = engine.fibonacci_sphere
    monkeypatch.setattr(engine, "fibonacci_sphere", lambda n: calls.append(n) or build(n))
    engine._seed_mesh.cache_clear()
    try:
        for p in (0.4, 0.85, 0.4):
            lhs_feasibility_qubit(werner_assemblage(p), mesh=42)
        assert calls == [42]
        pool = engine._seed_directions(42, [])
        np.testing.assert_array_equal(pool, build(42))
        assert not pool.flags.writeable
    finally:
        engine._seed_mesh.cache_clear()


def test_pv_single_matched_test_is_feasible():
    asm = assemblage_from_povms(singlet(), [pauli_povm("z")])
    verdict = pv_feasibility(asm, [pauli_povm("z")], mesh=162)
    assert verdict.is_feasible
    assert verdict.meta["deterministic_vertices"] == 2


def test_pv_incompatible_tests_are_infeasible():
    asm = werner_assemblage(1.0)
    verdict = pv_feasibility(asm, XZ, mesh=162)
    assert verdict.is_infeasible
    # empty deterministic set and a nonzero assemblage: exact, not mesh-limited
    assert verdict.meta["deterministic_vertices"] == 0
    assert_pv_certificate(verdict, asm, XZ)


def test_pv_single_test_on_other_settings_is_infeasible_with_columns():
    # the z-deterministic states cannot rebuild Alice's x and y contexts,
    # so the certificate must be nonnegative on 16 genuine columns
    asm = werner_assemblage(0.5, axes=("x", "y", "z"))
    verdict = pv_feasibility(asm, [pauli_povm("z")])
    assert verdict.meta["deterministic_vertices"] == 2 and verdict.meta["columns"] == 16
    assert_pv_certificate(verdict, asm, [pauli_povm("z")])
    assert verdict.meta["rounds"] == 1 and "mesh_size" not in verdict.meta


def test_pv_certificate_that_fails_the_exact_check_is_undecided(monkeypatch):
    asm = werner_assemblage(0.5)
    assert pv_feasibility(asm, [pauli_povm("z")]).is_infeasible
    monkeypatch.setattr(engine, "_exact_check", lambda *args: False)
    verdict = pv_feasibility(asm, [pauli_povm("z")])
    assert verdict.is_undecided
    assert verdict.meta["reason"] == "certificate failed exact check"


def test_pv_certificate_that_cannot_separate_is_a_named_undecided(monkeypatch):
    # a shift pad this large leaves c.b >= 0, and on a finite set every
    # column is already in the master, so no second round can help
    monkeypatch.setattr(engine, "_SHIFT_PAD", 1e3)
    verdict = pv_feasibility(werner_assemblage(0.5), [pauli_povm("z")])
    assert verdict.is_undecided and verdict.meta["rounds"] == 1
    assert verdict.meta["reason"] == "shifted certificate does not separate and no column can enter"


def test_pv_random_frame_single_test_stays_feasible():
    # Bob's conditional states lie on Alice's axis, so the two states that
    # answer the matched test deterministically rebuild them.  In float64
    # those directions match the blocks only up to rounding: an exact LP
    # on the same data calls this infeasible, the float master must not
    for _ in range(10):
        u = random_unit_vector(RNG)
        asm = assemblage_from_povms(werner_state(0.6), [pauli_povm(tuple(u))])
        verdict = pv_feasibility(asm, [pauli_povm(tuple(u))])
        assert verdict.is_feasible
        assert verdict.meta["deterministic_vertices"] == 2
        assert verdict.lhs_model.max_deviation(asm) <= 1e-8


def test_lp_tolerance_does_not_widen_the_deterministic_states():
    # a noisy test answers no state deterministically: CERTAINTY_TOL, not
    # the LP tolerance, decides which states are deterministic
    asm = assemblage_from_povms(singlet(), [pauli_povm("z")])
    noisy = [noisy_pauli_povm("z", 1 - 1e-4)]
    verdict = pv_feasibility(asm, noisy)
    assert verdict.is_infeasible and verdict.meta["deterministic_vertices"] == 0
    assert_pv_certificate(verdict, asm, noisy)


@pytest.mark.parametrize(
    "entries",
    [[np.eye(2)], [None], [pauli_povm("z"), "x"], pauli_povm("z"), None, 3],
    ids=["matrix", "none", "string", "bare-povm", "bare-none", "int"],
)
@pytest.mark.parametrize("question", ["jm", "pv"])
def test_measurements_must_be_povms(question, entries):
    with pytest.raises(InputError, match="scenario.Povm"):
        if question == "jm":
            joint_measurability(entries)
        else:
            pv_feasibility(werner_assemblage(0.4), bob_tests=entries)


def test_pv_requires_test_family_for_quantum_input():
    with pytest.raises(InputError):
        pv_feasibility(werner_assemblage(0.4))


def test_pv_box_matches_lhs():
    v1 = pv_feasibility(prbox_assemblage())
    v2 = lhs_feasibility_boxworld(prbox_assemblage())
    assert v1.status == v2.status == "infeasible"
    assert "certified" in v1.meta and v1.meta["question"] == "pv"
    assert_box_verdict_exact(prbox_assemblage(), v1)


def test_pv_feasible_implies_lhs_feasible_on_samples():
    # hidden states pinned to a test family are a special local model
    for p in (0.0, 0.2, 0.4):
        asm = werner_assemblage(p)
        for tests in ([pauli_povm("z")], [pauli_povm("x")]):
            pv = pv_feasibility(asm, tests, mesh=162)
            if pv.is_feasible:
                assert not lhs_feasibility_qubit(asm, mesh=162).is_infeasible
            elif pv.is_infeasible:
                assert_pv_certificate(pv, asm, tests)


# ---------------------------------------------------------------------------
# joint measurability

def test_identical_projective_tests_are_jointly_measurable():
    verdict = joint_measurability([pauli_povm("z"), pauli_povm("z")], mesh=162)
    assert verdict.is_feasible
    parents = verdict.parent_effects
    total = sum(parents)
    np.testing.assert_allclose(total, linalg.I2, atol=1e-7)
    for g in parents:
        assert np.linalg.eigvalsh(linalg.require_hermitian(g))[0] >= -1e-7


def test_sharp_x_and_z_are_incompatible():
    assert joint_measurability(XZ, mesh=162).is_infeasible


def test_noisy_x_and_z_compatibility_threshold():
    noisy = lambda eta: [noisy_pauli_povm("x", eta), noisy_pauli_povm("z", eta)]
    assert joint_measurability(noisy(0.5), mesh=162).is_feasible
    assert joint_measurability(noisy(0.9), mesh=162).is_infeasible


def trine_povm(eta):
    """Three effects (I + eta n_k.sigma)/3 along trine axes in the x-z plane."""
    axes = [(math.sin(t), math.cos(t)) for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    effects = tuple((linalg.I2 + eta * (sx * linalg.SIGMA_X + sz * linalg.SIGMA_Z)) / 3 for sx, sz in axes)
    return Povm(label="trine", effects=effects)


def assert_jm_margin_matches(jm, povms):
    # the reported margin is -c.b in the JM row layout
    assert jm.meta["margin"] == pytest.approx(-(jm.certificate @ jm_rows(povms)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("offset", [-1e-2, -1e-4, 1e-4, 1e-2])
@pytest.mark.parametrize("settings", [2, 3])
def test_jm_is_lhs_of_half_the_effects(settings, offset):
    axes = ("x", "z") if settings == 2 else ("x", "y", "z")
    povms = [noisy_pauli_povm(ax, 1.0 / math.sqrt(settings) + offset) for ax in axes]
    asm = Assemblage(np.array([povm.effects for povm in povms]) / 2)
    jm = joint_measurability(povms)
    lhs = lhs_feasibility_qubit(asm)
    assert jm.status == lhs.status and not jm.is_undecided
    assert jm.is_feasible is (offset < 0)
    assert jm.meta["rounds"] == lhs.meta["rounds"]
    if jm.is_feasible:
        assert_parents_rebuild(jm.parent_effects, povms)
        return
    assert np.array_equal(2 * jm.certificate[:-4], lhs.certificate)
    assert jm.certificate[-4:].tolist() == [0.0] * 4
    assert_separates_on_ball(jm.certificate, jm_rows(povms), jm_touch(povms))
    assert_jm_margin_matches(jm, povms)


@pytest.mark.parametrize("eta, feasible", [(0.65, True), (0.76, False)])
def test_trine_and_pauli_with_different_outcome_counts(eta, feasible):
    # the compatibility threshold of this pair is about 1/sqrt(2)
    povms = [trine_povm(eta), noisy_pauli_povm("y", eta)]
    jm = joint_measurability(povms)
    assert jm.is_feasible is feasible and not jm.is_undecided
    if feasible:
        assert_parents_rebuild(jm.parent_effects, povms)
    else:
        assert_separates_on_ball(jm.certificate, jm_rows(povms), jm_touch(povms))
        assert_jm_margin_matches(jm, povms)


# ---------------------------------------------------------------------------
# threshold scanning

def test_threshold_scan_brackets_werner_two_setting():
    checker = lambda a: lhs_feasibility_qubit(a, mesh=162)
    feas, infeas = threshold_scan(
        lambda p: werner_assemblage(p), checker, 0.0, 1.0, 0.02
    )
    assert feas < 1.0 / math.sqrt(2.0) < infeas
    assert infeas - feas <= 0.05


def test_threshold_scan_constant_feasible_family():
    checker = lhs_feasibility_boxworld
    feas, infeas = threshold_scan(
        lambda lam: uniform_assemblage(), checker, Fraction(0), Fraction(1), Fraction(1, 16)
    )
    assert feas == Fraction(1) and infeas is None


def test_threshold_scan_rejects_non_monotone_family():
    class Fake:
        def __init__(self, status):
            self.status = status
            self.is_feasible = status == "feasible"
            self.is_infeasible = status == "infeasible"
            self.is_undecided = False

    # feasible above an infeasible point: not a one-crossing family
    checker = lambda p: Fake("feasible" if p > 0.6 else "infeasible")
    with pytest.raises(NonMonotoneFamilyError):
        threshold_scan(lambda p: p, checker, 0.0, 1.0, 0.01)


def test_threshold_scan_stops_at_adjacent_floats():
    # a width below the float spacing at the step: once the midpoint
    # rounds to an end, its probe comes from the cache, so a loop that
    # does not stop there spins without calling the checker.  The width
    # counts the loop's tests instead and raises after 2,000 of them.
    class Fake:
        def __init__(self, status):
            self.status = status

    class CountingWidth(float):
        tests = 0

        def __lt__(self, other):  # ``b - a > width`` lands here
            CountingWidth.tests += 1
            if CountingWidth.tests > 2000:
                raise RuntimeError("threshold_scan does not halt")
            return float(self) < other

    step = 1.0 / 3.0
    checker = lambda p: Fake("feasible" if p <= step else "infeasible")
    feas, infeas = threshold_scan(lambda p: p, checker, 0.0, 1.0, CountingWidth(1e-300))
    assert feas == step and infeas == math.nextafter(step, 1.0)


def test_threshold_scan_input_validation():
    with pytest.raises(InputError):
        threshold_scan(lambda p: p, lambda a: None, 1.0, 0.0, 0.1)
    for width in (0.0, -0.1, float("nan")):
        with pytest.raises(InputError):
            threshold_scan(lambda p: p, lambda a: None, 0.0, 1.0, width)


def test_assemblage_rows_read_the_block_array_x_major():
    asm = assemblage_from_povms(werner_state(0.7), [pauli_povm(axis) for axis in ("x", "y", "z")])
    rows = engine._assemblage_rhs(asm).reshape(3, 2, 4)
    for x in range(3):
        for a in range(2):
            m = asm.block(x, a)
            t, rz = m.trace().real, (m[0, 0] - m[1, 1]).real
            rx, ry = (m[0, 1] + m[1, 0]).real, (1j * (m[0, 1] - m[1, 0])).real
            assert np.array_equal(rows[x, a], (t, rx, ry, rz))
