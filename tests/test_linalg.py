from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from steercert import linalg
from steercert.errors import InputError
from helpers import (
    psd_sqrt_2x2,
    random_hermitian,
    random_state,
    random_unit_vector,
    random_unitary,
)

RNG = np.random.default_rng(20260817)


def eig2_oracle(m):
    # closed form for 2x2 Hermitian: mean +- sqrt(mean^2 - det)
    t = m.trace().real / 2.0
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = math.sqrt(max(t * t - det, 0.0))
    return np.array([t - disc, t + disc])


def test_is_hermitian_and_require():
    np.testing.assert_array_equal(linalg.require_hermitian(linalg.SIGMA_Y), linalg.SIGMA_Y)
    for bad in (np.zeros((2, 3)), np.array([[0, 1], [2, 0]]), np.array([[np.nan, 0], [0, 1]])):
        with pytest.raises(ValueError):
            linalg.require_hermitian(bad, what="effect")


def check_psd(m, psd):
    # require_psd returns its input when it is PSD and raises otherwise
    if psd:
        np.testing.assert_array_equal(linalg.require_psd(m), m)
    else:
        with pytest.raises(InputError, match="is not positive semidefinite$"):
            linalg.require_psd(m)


def test_require_psd_cases_and_slack():
    check_psd(np.zeros((3, 3)), True)
    check_psd(random_state(RNG, 4), True)
    check_psd(np.diag([1.0, -0.1]), False)
    # slack: tiny negative eigenvalues pass
    check_psd(np.diag([1.0, -1e-12]), True)


def test_psd_boundary_follows_2x2_closed_form():
    # one eigvalsh call decides at the PSD boundary as the closed-form
    # eigenvalues do: shift a random Hermitian so its smaller eigenvalue
    # is +-2 * PSD_TOL
    for _ in range(50):
        m = random_hermitian(RNG, 2)
        low = eig2_oracle(m)[0]
        for target, expected in ((2 * linalg.PSD_TOL, True), (-2 * linalg.PSD_TOL, False)):
            shifted = m + (target - low) * linalg.I2
            assert abs(eig2_oracle(shifted)[0] - target) <= 1e-12
            check_psd(shifted, expected)


def test_psd_boundary_follows_known_spectrum_up_to_dim_8():
    # a known spectrum U diag(lam) U^dag with its smallest eigenvalue at
    # +-2 * PSD_TOL; the verdict must follow lam, not the rotation
    for dim in (2, 3, 4, 6, 8):
        for _ in range(10):
            u = random_unitary(RNG, dim)
            lam = np.concatenate([[0.0], RNG.uniform(0.1, 2.0, size=dim - 1)])
            for target, expected in ((2 * linalg.PSD_TOL, True), (-2 * linalg.PSD_TOL, False)):
                m = u @ np.diag(lam + target) @ linalg.dag(u)
                m = (m + linalg.dag(m)) / 2.0
                check_psd(m, expected)


def test_require_psd_diagonal_and_identity():
    check_psd(np.diag([3.0, -1.0, 2.0]), False)
    check_psd(np.diag([3.0, 0.0, 2.0]), True)
    check_psd(np.eye(4), True)
    check_psd(-np.eye(4), False)


def test_require_psd_rejects_non_hermitian():
    # eigvalsh reads one triangle only, so non-Hermitian input must be refused
    for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 1j], [1j, 1.0]])):
        with pytest.raises(InputError, match="is not Hermitian"):
            linalg.require_psd(bad)


def test_psd_sqrt_2x2_squares_back():
    for _ in range(50):
        m = random_state(RNG, 2) * RNG.uniform(0.1, 3.0)
        r = psd_sqrt_2x2(m)
        np.testing.assert_allclose(r @ r, m, atol=1e-12)
        linalg.require_psd(r)
    # rank-one and zero corner cases
    proj = linalg.bloch_state((0.0, 0.0, 1.0))
    np.testing.assert_allclose(psd_sqrt_2x2(proj) @ psd_sqrt_2x2(proj), proj, atol=1e-13)
    np.testing.assert_allclose(psd_sqrt_2x2(np.zeros((2, 2))), np.zeros((2, 2)))


def test_bloch_round_trip():
    for _ in range(20):
        n = random_unit_vector(RNG) * RNG.uniform(0.0, 1.0)
        t, rx, ry, rz = linalg.bloch_components(linalg.bloch_state(n))
        np.testing.assert_allclose([t, rx, ry, rz], [1.0, *n], atol=1e-12)


def test_bloch_state_positivity_boundary():
    linalg.require_psd(linalg.bloch_state((1.0, 0.0, 0.0)))
    eigs = np.linalg.eigvalsh(linalg.bloch_state((0.0, 1.0, 0.0)))
    np.testing.assert_allclose(eigs, [0.0, 1.0], atol=1e-12)


def test_pauli_algebra():
    for s in linalg.PAULIS:
        np.testing.assert_allclose(s @ s, linalg.I2, atol=1e-15)
    np.testing.assert_allclose(
        linalg.SIGMA_X @ linalg.SIGMA_Y - linalg.SIGMA_Y @ linalg.SIGMA_X,
        2j * linalg.SIGMA_Z,
        atol=1e-15,
    )


def test_bloch_components_of_a_stack_keep_the_one_matrix_formulas():
    stack = np.array([random_hermitian(RNG, 2) for _ in range(6)]).reshape(3, 2, 2, 2)
    got = linalg.bloch_components(stack)
    assert got.shape == (3, 2, 4)
    for m, row in zip(stack.reshape(-1, 2, 2), got.reshape(-1, 4)):
        want = (m.trace().real, (m[0, 1] + m[1, 0]).real, (1j * (m[0, 1] - m[1, 0])).real, (m[0, 0] - m[1, 1]).real)
        assert np.array_equal(row, want)


def test_stack_checks_name_the_first_failing_matrix():
    def name(k):
        return f"m{k}"

    stack = np.array([np.eye(2), np.diag([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]], np.diag([np.nan, 1.0])])
    with pytest.raises(InputError, match="^m3 has non-finite entries"):
        linalg.require_psd(stack, name)
    stack[3] = np.eye(2)
    with pytest.raises(InputError, match="^m2 is not Hermitian"):
        linalg.require_psd(stack, name)
    stack[2] = np.eye(2)
    with pytest.raises(InputError, match="^m1 is not positive semidefinite$"):
        linalg.require_psd(stack, name)
    stack[1] = np.eye(2)
    np.testing.assert_array_equal(linalg.require_psd(stack, name), stack)
    with pytest.raises(InputError, match=r"^m0 must be square, got shape \(3, 2, 3\)"):
        linalg.require_square(np.zeros((3, 2, 3)), name)
    with pytest.raises(InputError, match="^effect must be square"):
        linalg.require_square(np.zeros(3), "effect")
    with pytest.raises(InputError, match=r"^matrix stack must be square, got shape \(3,\)"):
        linalg.require_square(np.zeros(3), name)


def test_scaled_ints_is_exact_and_least():
    floats = [0.5, -0.75, 5e-324, 1e300, 3.0, 0.1]
    cases = [
        floats,
        [3, 0, -7, 0],
        [0, 0],
        [Fraction(1, 10**40), Fraction(-3, 2 * 10**40 + 1), Fraction(7, 5), Fraction(0)],
    ]
    for v in cases:
        ints, d = linalg.scaled_ints(v)
        assert len(ints) == len(v) and all(i == Fraction(x) * d for i, x in zip(ints, v)), v
        assert math.gcd(d, *ints) == 1, v
    assert linalg.scaled_ints(np.array(floats)) == linalg.scaled_ints(floats)
    assert linalg.scaled_ints([]) == ([], 1)
