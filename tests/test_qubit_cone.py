"""Differential and property tests of the qubit column-generation engine.

Random assemblages and random noisy measurement sets are decided both by
the engine and by the test-only mesh sandwich in ``helpers``; the two
must never contradict each other, and every Infeasible certificate must
separate over the whole Bloch ball.  Verdicts must also be monotone
along the Werner and noisy-Pauli families.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import steercert
from steercert.engine import joint_measurability, lhs_feasibility_qubit
from steercert.scenario import assemblage_from_povms, noisy_pauli_povm, pauli_povm, werner_state
from helpers import (
    assert_parents_rebuild,
    assert_separates_on_ball,
    jm_rows,
    jm_touch,
    lhs_rows,
    lhs_touch,
    random_noisy_povms,
    random_qubit_assemblage,
    random_unit_vector,
    sandwich_verdict,
)

SLOW = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
CONTRADICTS = {("feasible", "infeasible"), ("infeasible", "feasible")}


@settings(max_examples=30, **SLOW)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_lhs_never_contradicts_the_mesh_sandwich(seed, num_settings):
    asm = random_qubit_assemblage(np.random.default_rng(seed), num_settings)
    b, touch = lhs_rows(asm), lhs_touch(asm.settings, asm.outcomes)
    verdict = lhs_feasibility_qubit(asm, mesh=42)
    assert (verdict.status, sandwich_verdict(b, touch, 1.0)) not in CONTRADICTS
    if verdict.is_feasible:
        assert verdict.lhs_model.max_deviation(asm) <= 1e-8
    elif verdict.is_infeasible:
        assert_separates_on_ball(verdict.certificate, b, touch)


@settings(max_examples=30, **SLOW)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_joint_measurability_never_contradicts_the_mesh_sandwich(seed, count):
    povms = random_noisy_povms(np.random.default_rng(seed), count)
    b, touch = jm_rows(povms), jm_touch(povms)
    verdict = joint_measurability(povms, mesh=42)
    assert (verdict.status, sandwich_verdict(b, touch, 2.0)) not in CONTRADICTS
    if verdict.is_feasible:
        assert_parents_rebuild(verdict.parent_effects, povms)
    elif verdict.is_infeasible:
        assert_separates_on_ball(verdict.certificate, b, touch)


def _never_feasible_after_infeasible(statuses):
    seen_infeasible = False
    for status in statuses:
        seen_infeasible |= status == "infeasible"
        assert not (seen_infeasible and status == "feasible")


@settings(max_examples=15, **SLOW)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_verdicts_are_monotone_along_werner_and_noisy_pauli_families(seed, m, weights):
    rng = np.random.default_rng(seed)
    axes = [random_unit_vector(rng) for _ in range(m)]
    weights = sorted(weights)
    lhs = [
        lhs_feasibility_qubit(assemblage_from_povms(werner_state(p), [pauli_povm(ax) for ax in axes]))
        for p in weights
    ]
    jm = [joint_measurability([noisy_pauli_povm(ax, p) for ax in axes]) for p in weights]
    _never_feasible_after_infeasible([v.status for v in lhs])
    _never_feasible_after_infeasible([v.status for v in jm])


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency: a fresh process that loads the
    # CLI (and with it the whole package) loads no scipy and no test tooling
    src = str(Path(steercert.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import steercert.cli, sys; "
        "loaded = sorted({k.split('.')[0] for k in sys.modules} & {'scipy', 'hypothesis', 'pytest', '_pytest'}); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
