from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from steercert import cli
from steercert.engine import lhs_feasibility_qubit
from steercert.errors import InputError
from steercert.linalg import PAULIS
from steercert.scenario import (
    assemblage_from_povms,
    matrix_to_json,
    pauli_observable,
    pauli_povm,
    singlet,
    werner_state,
)
from steercert.witnesses import CorrelatorSet, cjwr, correlators_from_assemblage, s_m

RNG = np.random.default_rng(7103)

AXES = {2: ("x", "z"), 3: ("x", "y", "z")}
PAULI_ROWS = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


def pauli_rows(m):
    """Bob observables on the Pauli axes x, y, z, x, ... as (b, r) rows."""
    return tuple(PAULI_ROWS[x % 3] for x in range(m))


def matched(p, m):
    axes = AXES[m]
    asm = assemblage_from_povms(werner_state(p), [pauli_povm(ax) for ax in axes])
    obs = [pauli_observable(ax) for ax in axes]
    return correlators_from_assemblage(asm, obs)


def test_correlator_set_validation():
    c = CorrelatorSet((-1.0, 0.5), pauli_rows(2))
    assert c.values == (-1.0, 0.5) and c.m == 2
    with pytest.raises(InputError, match="at least one correlator"):
        CorrelatorSet((), ())
    with pytest.raises(InputError):
        CorrelatorSet((1.5,), pauli_rows(1))
    with pytest.raises(InputError):
        CorrelatorSet((-1.0, 0.5), pauli_rows(1))


def test_singlet_matched_correlators_are_minus_one():
    c = matched(1.0, 2)
    np.testing.assert_allclose(c.values, [-1.0, -1.0], atol=1e-12)
    assert abs(s_m(c) + 1.0) < 1e-12


def test_werner_matched_correlators_scale_linearly():
    for p in (0.0, 0.3, 0.8):
        for m in (2, 3):
            c = matched(p, m)
            np.testing.assert_allclose(c.values, [-p] * m, atol=1e-12)
    assert abs(s_m(matched(0.8, 2)) + 0.8) < 1e-12


def test_cjwr_known_values():
    r = cjwr(matched(0.75, 2))
    assert abs(r.F - 0.75 * math.sqrt(2.0)) < 1e-12 and r.violated
    r = cjwr(matched(0.6, 3))
    assert abs(r.F - 0.6 * math.sqrt(3.0)) < 1e-12 and r.violated
    r = cjwr(matched(0.5, 2))
    assert abs(r.F - 0.5 * math.sqrt(2.0)) < 1e-12 and not r.violated


def test_f_equals_sqrt_m_times_mean_identity():
    for _ in range(200):
        m = int(RNG.integers(1, 7))
        values = RNG.uniform(-1.0, 1.0, size=m)
        c = CorrelatorSet(tuple(values), pauli_rows(m))
        f = cjwr(c).F
        assert abs(f - math.sqrt(m) * abs(s_m(c))) <= 1e-15


def test_observable_validation():
    asm = assemblage_from_povms(singlet(), [pauli_povm("x"), pauli_povm("z")])
    with pytest.raises(InputError):
        correlators_from_assemblage(asm, [pauli_observable("x")])  # wrong count
    with pytest.raises(InputError):
        correlators_from_assemblage(asm, [0.5 * np.eye(2), pauli_observable("z")])
    with pytest.raises(InputError):
        correlators_from_assemblage(asm, [np.array([[0, 1], [0, 0]]), pauli_observable("z")])


def test_witness_never_violated_on_certified_local_models():
    # soundness: an inner-feasible assemblage cannot beat the local bound
    for p in (0.0, 0.25, 0.5, 0.65):
        for m in (2, 3):
            axes = AXES[m]
            asm = assemblage_from_povms(werner_state(p), [pauli_povm(ax) for ax in axes])
            if lhs_feasibility_qubit(asm, mesh=162).is_feasible:
                f = cjwr(matched(p, m)).F
                assert f <= 1.0 + 1e-8


def test_random_axis_correlators_stay_in_range():
    for _ in range(20):
        v = RNG.normal(size=3)
        v /= np.linalg.norm(v)
        asm = assemblage_from_povms(werner_state(0.9), [pauli_povm(tuple(v))])
        c = correlators_from_assemblage(asm, [pauli_observable(tuple(v))])
        assert abs(c.values[0]) <= 1.0 + 1e-12


CUBE = [tuple(v / math.sqrt(3.0) for v in axis) for axis in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))]


def cube_file(tmp_path, p):
    povms = [[matrix_to_json(e) for e in pauli_povm(axis).effects] for axis in CUBE]
    doc = {"dimA": 2, "dimB": 2, "state": {"kind": "werner", "p": p}, "alice_povms": povms, "bob_povms": povms}
    path = tmp_path / f"cube-{p}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("p, violated", [(0.55, "no"), (0.6, "yes")])
def test_check_on_cube_diagonal_axes_uses_their_local_bound(tmp_path, capsys, p, violated):
    # four cube-diagonal axes: a local model reaches F = 2/sqrt(3), not 1,
    # so the Werner state at p = 0.55 (F = 1.1, LHS-feasible) violates nothing
    assert cli.main(["check", str(cube_file(tmp_path, p))]) == 0
    out = capsys.readouterr().out
    assert f"witness violated: {violated}" in out
    assert f"F = {2 * p:.6f}" in out and f"F_bound = {2 / math.sqrt(3.0):.6f}" in out


@pytest.mark.parametrize("m", [2, 3])
def test_orthogonal_axes_keep_bound_one(m):
    report = cli.cmd_singlet_cjwr(settings=m, werner_p=0.75)
    assert abs(report.witness_values["F"] - 0.75 * math.sqrt(m)) < 1e-12
    assert abs(report.witness_values["F_bound"] - 1.0) < 1e-15
    assert report.details["violated"] is True


def _top_eigenvalue_bound(observables):
    """max over signs s of the largest eigenvalue of sum_x s_x B_x."""
    mats = [b * np.eye(2) + sum(r * p for r, p in zip(rvec, PAULIS)) for b, *rvec in observables]
    return max(
        np.linalg.eigvalsh(sum(s * mat for s, mat in zip(signs, mats)))[-1]
        for signs in itertools.product((1, -1), repeat=len(mats))
    )


def test_bound_is_the_top_eigenvalue_over_sign_strategies():
    for _ in range(40):
        m = int(RNG.integers(1, 7))
        rows = []
        for _ in range(m):
            if RNG.random() < 0.2:
                rows.append((float(RNG.choice((-1.0, 1.0))), 0.0, 0.0, 0.0))  # +-identity
            else:
                v = RNG.normal(size=3)
                rows.append((0.0, *(v / np.linalg.norm(v))))
        c = CorrelatorSet(tuple(RNG.uniform(-1.0, 1.0, size=m)), observables=tuple(rows))
        want = _top_eigenvalue_bound(rows) / math.sqrt(m)
        assert abs(cjwr(c).bound - want) < 1e-12


def test_violation_is_decided_exactly_at_the_bound():
    # two axes 60 degrees apart: L = |r_0 + r_1| = sqrt(3), irrational, so
    # correlator sums a few ulps either side of it must be judged on the
    # float64 values exactly, not by a rounded comparison
    rows = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.5, math.sqrt(3.0) / 2.0, 0.0))
    exact = [[Fraction(v) for v in row] for row in rows]
    bound_sq = max(
        sum((s0 * r0 + s1 * r1) ** 2 for r0, r1 in zip(exact[0][1:], exact[1][1:]))
        for s0, s1 in itertools.product((1, -1), repeat=2)
    )
    total = math.sqrt(3.0)
    for step in range(-3, 4):
        value = total
        for _ in range(abs(step)):
            value = math.nextafter(value, math.inf if step > 0 else -math.inf)
        c = CorrelatorSet((-value / 2.0, -value / 2.0), observables=rows)
        assert cjwr(c).violated is (Fraction(sum(c.values)) ** 2 > bound_sq)


def test_platonic_cube_bound():
    rows = tuple((0.0, *axis) for axis in CUBE)
    c = CorrelatorSet((-0.5,) * 4, observables=rows)
    assert abs(cjwr(c).bound - 2.0 / math.sqrt(3.0)) < 1e-12
