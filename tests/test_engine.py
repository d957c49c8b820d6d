from __future__ import annotations

import dataclasses
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
    check_value_assignment,
    deterministic_bloch_set,
    enumerate_strategies,
    joint_measurability,
    lhs_feasibility_boxworld,
    lhs_feasibility_qubit,
    pv_feasibility,
    threshold_scan,
)
from steercert.errors import InputError, NonMonotoneFamilyError
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


def test_enumerate_strategies_lexicographic_and_cap():
    strategies = enumerate_strategies(2, 2)
    assert [s.responses for s in strategies] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(InputError):
        enumerate_strategies(10, 4)
    mixed = enumerate_strategies(2, [1, 3])
    assert [s.responses for s in mixed] == [(0, 0), (0, 1), (0, 2)]
    with pytest.raises(InputError):
        enumerate_strategies(2, [2])


def test_werner_low_weight_is_feasible_with_tight_model():
    asm = werner_assemblage(0.4)
    verdict = lhs_feasibility_qubit(asm, mesh=162)
    assert verdict.is_feasible
    model = verdict.lhs_model
    assert model.max_deviation(asm) <= 1e-8
    assert abs(model.total_weight() - 1.0) <= 1e-8
    assert np.min(model.weights) >= -1e-12
    for omega in model.hidden_states:
        assert linalg.psd_check(omega)
        assert abs(omega.trace().real - 1.0) < 1e-9


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

    assert c @ rows_for(asm.sigma) < -1e-10
    for strat in enumerate_strategies(2, 2):
        for _ in range(40):
            n = random_unit_vector(RNG)
            omega = linalg.bloch_state(n)
            blocks = {
                (x, a): (omega if strat.responses[x] == a else np.zeros((2, 2)))
                for x in range(2)
                for a in range(2)
            }
            assert c @ rows_for(blocks) >= -1e-9


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
    monkeypatch.setattr(engine, "_ball_check", lambda *args: False)
    verdict = lhs_feasibility_qubit(werner_assemblage(0.85))
    assert verdict.is_undecided
    assert verdict.meta["reason"] == "certificate failed ball check"


def test_jm_certificate_that_fails_the_exact_ball_check_is_undecided(monkeypatch):
    # joint measurability goes through the same exact ball check as LHS
    noisy = [noisy_pauli_povm(ax, 0.85) for ax in ("x", "z")]
    verdict = joint_measurability(noisy)
    assert verdict.is_infeasible and "float64" in verdict.meta["certified"]
    monkeypatch.setattr(engine, "_ball_check", lambda *args: False)
    verdict = joint_measurability(noisy)
    assert verdict.is_undecided
    assert verdict.meta["reason"] == "certificate failed ball check"


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
    sigma = {
        k: lam * a1.sigma[k] + (1 - lam) * a2.sigma[k] for k in a1.sigma
    }
    mixed = Assemblage(settings=2, outcomes=2, dim_b=2, sigma=sigma)
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
    for alice in enumerate_strategies(2, 2):
        for bob in enumerate_strategies(2, 2):
            col = {
                (x, a): {
                    (y, b): Fraction(1)
                    if alice.responses[x] == a and bob.responses[y] == b
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
    i, j = [k for k, w in enumerate(model.weights) if w][:2]
    d = model.weights[i] / 2
    weights = list(model.weights)
    weights[i] -= d
    weights[j] += d
    moved = dataclasses.replace(model, weights=tuple(weights))
    assert moved.max_deviation(asm) == d > 0


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

    trivial = Povm(label="coin", effects=(linalg.I2, np.zeros((2, 2))), dim=2)
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
    monkeypatch.setattr(engine, "separates", lambda *args: False)
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


def test_check_value_assignment_rules():
    z = pauli_povm("z")
    assert check_value_assignment([z], [[1, 0]])
    assert not check_value_assignment([z], [[1, 1]])
    assert not check_value_assignment([z], [[0, 0]])
    with pytest.raises(InputError):
        check_value_assignment([z], [[1]])
    with pytest.raises(InputError):
        check_value_assignment([z], [[2, 0]])

    # the same effect appearing in two groups must get one value
    e = np.diag([0.5, 0.0])
    g1 = Povm(label="g1", effects=(e, linalg.I2 - e), dim=2)
    g2 = Povm(label="g2", effects=(e, linalg.I2 - e), dim=2)
    assert check_value_assignment([g1, g2], [[1, 0], [1, 0]])
    assert not check_value_assignment([g1, g2], [[1, 0], [0, 1]])


def test_check_value_assignment_coarse_graining():
    effects = (np.diag([0.5, 0.0]), np.diag([0.3, 0.2]), np.diag([0.2, 0.8]))
    povm = Povm(label="three", effects=effects, dim=2)
    assignment = [[0, 1, 0]]
    assert check_value_assignment([povm], assignment, coarse_grainings=[(0, (1, 2), 1)])
    assert not check_value_assignment([povm], assignment, coarse_grainings=[(0, (1, 2), 0)])
    assert not check_value_assignment([povm], assignment, coarse_grainings=[(0, (0,), 1)])


# ---------------------------------------------------------------------------
# joint measurability

def test_identical_projective_tests_are_jointly_measurable():
    verdict = joint_measurability([pauli_povm("z"), pauli_povm("z")], mesh=162)
    assert verdict.is_feasible
    parents = verdict.parent_effects
    total = sum(parents)
    np.testing.assert_allclose(total, linalg.I2, atol=1e-7)
    for g in parents:
        assert linalg.psd_check(g, tol=1e-7)


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
    return Povm(label="trine", effects=effects, dim=2)


def assert_jm_margin_matches(jm, povms):
    # the reported margin is -c.b in the JM row layout
    assert jm.meta["margin"] == pytest.approx(-(jm.certificate @ jm_rows(povms)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("offset", [-1e-2, -1e-4, 1e-4, 1e-2])
@pytest.mark.parametrize("settings", [2, 3])
def test_jm_is_lhs_of_half_the_effects(settings, offset):
    axes = ("x", "z") if settings == 2 else ("x", "y", "z")
    povms = [noisy_pauli_povm(ax, 1.0 / math.sqrt(settings) + offset) for ax in axes]
    asm = Assemblage(
        settings=settings,
        outcomes=2,
        dim_b=2,
        sigma={(x, a): povm.effects[a] / 2 for x, povm in enumerate(povms) for a in range(2)},
    )
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


def test_threshold_scan_input_validation():
    with pytest.raises(InputError):
        threshold_scan(lambda p: p, lambda a: None, 1.0, 0.0, 0.1)
    for width in (0.0, -0.1, float("nan")):
        with pytest.raises(InputError):
            threshold_scan(lambda p: p, lambda a: None, 0.0, 1.0, width)
