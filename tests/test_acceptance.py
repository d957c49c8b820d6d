"""Acceptance gate: one test per release criterion, each with a wall-clock
budget.  Every test prints its own PASS line with the measured runtime so
the gate reads as a checklist."""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from steercert import cli, linalg
from steercert.boxworld import (
    chsh_value,
    joint_from_assemblage,
    mix_assemblages,
    prbox_assemblage,
    uniform_assemblage,
)
from steercert.engine import (
    joint_measurability,
    lhs_feasibility_boxworld,
    lhs_feasibility_qubit,
    pv_feasibility,
    threshold_scan,
)
from steercert.gaussian import inferred_variances, reid_check, tmsv_covariance
from steercert.scenario import (
    Assemblage,
    Povm,
    assemblage_from_povms,
    noisy_pauli_povm,
    pauli_observable,
    pauli_povm,
    povm_from_kraus,
    scan_predictability,
    singlet,
    werner_state,
)
from steercert.witnesses import cjwr, correlators_from_assemblage
from helpers import (
    assert_box_verdict_exact,
    assert_pv_certificate,
    random_kraus_split,
    random_povm_pair,
    random_state,
    random_unit_vector,
)

AXES = {2: ("x", "z"), 3: ("x", "y", "z")}


def werner_assemblage(p, m=2):
    return assemblage_from_povms(werner_state(p), [pauli_povm(ax) for ax in AXES[m]])


def finish(n, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {n}: PASS ({elapsed:.2f}s / budget {budget}s)")


def located_threshold(m, mesh, bracket_tol):
    checker = lambda a: lhs_feasibility_qubit(a, mesh=mesh)
    return threshold_scan(lambda p: werner_assemblage(p, m), checker, 0.0, 1.0, bracket_tol)


def test_criterion_1_werner_two_setting_threshold():
    t0 = time.perf_counter()
    crossing = cli.cmd_werner_scan(settings=2, witness_only=True, grid=(0.5, 0.8, 0.1))
    assert abs(crossing.witness_values["crossing_p"] - 1.0 / math.sqrt(2.0)) <= 1e-12
    lo, hi = located_threshold(2, mesh=642, bracket_tol=0.01)
    assert hi is not None and lo < 0.70711 < hi
    assert hi - lo <= 0.03
    finish(1, t0, 30)


def test_criterion_2_werner_three_setting_threshold():
    t0 = time.perf_counter()
    crossing = cli.cmd_werner_scan(settings=3, witness_only=True, grid=(0.4, 0.7, 0.1))
    assert abs(crossing.witness_values["crossing_p"] - 1.0 / math.sqrt(3.0)) <= 1e-12
    lo, hi = located_threshold(3, mesh=642, bracket_tol=0.01)
    assert hi is not None and lo < 0.57735 < hi
    assert hi - lo <= 0.03
    finish(2, t0, 60)


def test_criterion_3_singlet_counterexample_pipeline():
    t0 = time.perf_counter()
    matched = [pauli_povm("x"), pauli_povm("z")]
    asm = assemblage_from_povms(singlet(), matched)

    records = scan_predictability(asm, matched)
    assert len(records) == 4
    assert all(r.probability >= 1.0 - 1e-9 for r in records)

    f = cjwr(correlators_from_assemblage(asm, [pauli_observable("x"), pauli_observable("z")])).F
    assert abs(f - math.sqrt(2.0)) <= 1e-12

    assert lhs_feasibility_qubit(asm, mesh=162).is_infeasible
    pv = pv_feasibility(asm, matched, mesh=162)
    assert pv.is_infeasible
    assert_pv_certificate(pv, asm, matched)

    single = assemblage_from_povms(singlet(), [pauli_povm("z")])
    assert pv_feasibility(single, [pauli_povm("z")], mesh=162).is_feasible
    finish(3, t0, 10)


def test_criterion_4_prbox():
    t0 = time.perf_counter()
    asm = prbox_assemblage()
    ns = asm.no_signalling
    assert ns.passed and ns.max_deviation == 0.0
    assert chsh_value(joint_from_assemblage(asm)) == Fraction(4)

    def reverify(certificate):
        def rows_for(table):
            return [
                table[(x, a)].get((y, b), Fraction(0))
                for x in range(2) for a in range(2) for y in range(2) for b in range(2)
            ]

        rhs = {
            (x, a): {
                (y, b): asm.weight(x, a) * asm.state(x, a).prob(y, b)
                for y in range(2) for b in range(2)
            }
            for x in range(2) for a in range(2)
        }
        assert sum(c * r for c, r in zip(certificate, rows_for(rhs))) < 0
        for alice in itertools.product(range(2), repeat=2):
            for bob in itertools.product(range(2), repeat=2):
                col = {
                    (x, a): {
                        (y, b): Fraction(int(alice[x] == a and bob[y] == b))
                        for y in range(2) for b in range(2)
                    }
                    for x in range(2) for a in range(2)
                }
                assert sum(c * r for c, r in zip(certificate, rows_for(col))) >= 0

    lhs = lhs_feasibility_boxworld(asm)
    assert lhs.is_infeasible
    reverify(lhs.certificate)
    pv = pv_feasibility(asm)
    assert pv.is_infeasible
    reverify(pv.certificate)
    assert "certified" in pv.meta
    assert_box_verdict_exact(asm, pv)

    report = cli.cmd_prbox()
    assert report.witness_values["chsh"] == 4.0
    assert round(report.witness_values["quantum_bound"], 4) == 2.8284
    assert report.witness_values["chsh"] > report.witness_values["quantum_bound"]
    finish(4, t0, 5)


def test_criterion_5_reid_numbers():
    t0 = time.perf_counter()
    var_x, var_p = inferred_variances(tmsv_covariance(0.69))
    assert abs(var_x - var_p) <= 1e-12
    target = math.sqrt(1.0 / (2.0 * math.cosh(1.38)))
    assert abs(math.sqrt(var_x) - target) <= 1e-12
    res = reid_check(var_x, var_p)
    assert res.steering and res.product < 0.5
    assert round(math.sqrt(var_x), 3) == 0.486
    assert round(res.product, 3) == 0.237
    finish(5, t0, 1)


def test_criterion_6_push_through_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(618)
    for _ in range(200):
        rho = random_state(rng, 4)
        effects = random_povm_pair(rng)
        povm = Povm(label="m", effects=effects)
        kraus = tuple(
            random_kraus_split(rng, e, pieces=int(rng.integers(1, 4))) for e in effects
        )
        a_povm = assemblage_from_povms(rho, [povm])
        a_inst = assemblage_from_povms(rho, [povm_from_kraus("m", kraus)])
        dev = max(
            float(np.max(np.abs(a_povm.block(0, a) - a_inst.block(0, a)))) for a in range(2)
        )
        assert dev <= 1e-10
    finish(6, t0, 10)


def test_criterion_7_pv_never_beats_lhs():
    t0 = time.perf_counter()
    shipped = [
        (assemblage_from_povms(singlet(), [pauli_povm("z")]), [pauli_povm("z")]),
        (werner_assemblage(1.0), [pauli_povm("x"), pauli_povm("z")]),
        (werner_assemblage(0.0), [pauli_povm("z")]),
        (werner_assemblage(0.5), [pauli_povm("x")]),
        (werner_assemblage(0.5, m=3), [pauli_povm("y")]),
    ]

    def no_contradiction(pv, lhs, asm, tests=None):
        assert not (pv.is_feasible and lhs.is_infeasible)
        if pv.is_infeasible and tests is None:
            assert "certified" in pv.meta
            assert_box_verdict_exact(asm, pv)
        elif pv.is_infeasible:
            assert_pv_certificate(pv, asm, tests)

    for asm, tests in shipped:
        no_contradiction(
            pv_feasibility(asm, tests, mesh=162), lhs_feasibility_qubit(asm, mesh=162), asm, tests
        )
    for box in (prbox_assemblage(), uniform_assemblage(),
                mix_assemblages(Fraction(1, 2), prbox_assemblage(), uniform_assemblage())):
        no_contradiction(pv_feasibility(box), lhs_feasibility_boxworld(box), box)

    rng = np.random.default_rng(71)
    for _ in range(50):
        p = float(rng.uniform(0.0, 1.0))
        u, v = random_unit_vector(rng), random_unit_vector(rng)
        alice = [pauli_povm(tuple(u)), pauli_povm(tuple(v))]
        asm = assemblage_from_povms(werner_state(p), alice)
        k = int(rng.integers(1, 3))
        tests = [pauli_povm(tuple(u)), pauli_povm(tuple(v))][:k]
        no_contradiction(
            pv_feasibility(asm, tests, mesh=162), lhs_feasibility_qubit(asm, mesh=162), asm, tests
        )
    finish(7, t0, 60)


def test_criterion_8_incompatibility_matches_steering_threshold():
    t0 = time.perf_counter()
    jm_checker = lambda povms: joint_measurability(povms, mesh=162)
    jm_lo, jm_hi = threshold_scan(
        lambda eta: [noisy_pauli_povm("x", eta), noisy_pauli_povm("z", eta)],
        jm_checker, 0.0, 1.0, 0.01,
    )
    st_lo, st_hi = located_threshold(2, mesh=162, bracket_tol=0.01)
    assert jm_hi is not None and st_hi is not None

    # the two independently encoded LPs must agree on the location:
    # both brackets intersect one interval of width <= 0.05 centred on
    # the joint-measurability estimate
    centre = (jm_lo + jm_hi) / 2.0
    window = (centre - 0.025, centre + 0.025)
    for lo, hi in ((jm_lo, jm_hi), (st_lo, st_hi)):
        assert hi >= window[0] and lo <= window[1], ((lo, hi), window)
    finish(8, t0, 120)


def test_criterion_9_convexity_and_coarse_graining():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)

    def random_feasible(p_max=0.5):
        p = float(rng.uniform(0.0, p_max))
        axes = [tuple(random_unit_vector(rng)) for _ in range(2)]
        asm = assemblage_from_povms(werner_state(p), [pauli_povm(ax) for ax in axes])
        assert lhs_feasibility_qubit(asm, mesh=162).is_feasible
        return asm

    def trine_assemblage():
        p = float(rng.uniform(0.0, 0.5))
        angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
        shift = float(rng.uniform(0.0, math.pi))
        effects = tuple(
            (2.0 / 3.0) * linalg.bloch_state((math.sin(a + shift), 0.0, math.cos(a + shift)))
            for a in angles
        )
        alice = [Povm(label="trine", effects=effects)]
        return assemblage_from_povms(werner_state(p), alice)

    for _ in range(25):  # mixtures of feasible assemblages stay feasible
        a1, a2 = random_feasible(), random_feasible()
        lam = float(rng.uniform(0.0, 1.0))
        mixed = Assemblage(lam * a1.blocks + (1 - lam) * a2.blocks)
        assert lhs_feasibility_qubit(mixed, mesh=162).is_feasible

    for _ in range(25):  # deterministic outcome merges stay feasible
        asm = trine_assemblage()
        assert lhs_feasibility_qubit(asm, mesh=162).is_feasible
        coarse = Assemblage([[asm.block(0, 0), asm.block(0, 1) + asm.block(0, 2)]])
        assert lhs_feasibility_qubit(coarse, mesh=162).is_feasible
    finish(9, t0, 60)
