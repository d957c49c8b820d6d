from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from steercert.errors import InputError
from steercert.gaussian import (
    OMEGA,
    CovarianceMatrix,
    apply_symmetric_loss,
    inferred_variances,
    reid_check,
    reid_sweep,
    tmsv_covariance,
)


def test_vacuum_limit():
    np.testing.assert_allclose(tmsv_covariance(0.0).entries, np.eye(4) / 2, atol=1e-15)


def test_tmsv_block_structure():
    r = 0.69
    cm = tmsv_covariance(r).entries
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    np.testing.assert_allclose(cm[:2, :2], c * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(cm[2:, 2:], c * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(cm[:2, 2:], s * np.diag([1.0, -1.0]), atol=1e-12)
    assert abs(cm[0, 0] - math.cosh(1.38) / 2) < 1e-12


def test_covariance_matrix_validation():
    with pytest.raises(InputError):
        CovarianceMatrix(np.eye(3))
    m = np.eye(4) / 2
    m[0, 1] = 0.3  # not symmetric
    with pytest.raises(InputError):
        CovarianceMatrix(m)
    with pytest.raises(InputError):
        CovarianceMatrix(np.eye(4) * 0.1)  # below the uncertainty bound
    with pytest.raises(InputError):
        tmsv_covariance(-0.2)
    # cosh(2r) overflows, or 2r itself does (and cosh(inf) = inf does not
    # raise); either must surface as an input error
    for r in (400.0, 1e308):
        with pytest.raises(InputError, match="too large"):
            tmsv_covariance(r)
    for r in (float("nan"), float("inf")):
        with pytest.raises(InputError):
            tmsv_covariance(r)
    m = np.eye(4)
    m[2, 2] = np.nan
    with pytest.raises(InputError):
        CovarianceMatrix(m)  # non-finite entries never reach the eigenvalue solver


def test_inferred_variance_identity_over_squeezing():
    # conditional variance of the optimal linear estimate on a TMSV
    for r in np.linspace(0.0, 3.0, 100):
        var_x, var_p = inferred_variances(tmsv_covariance(r))
        target = 1.0 / (2.0 * math.cosh(2.0 * r))
        assert abs(var_x - target) <= 1e-12
        assert abs(var_p - target) <= 1e-12


def test_inferred_variances_decrease_in_r():
    values = [inferred_variances(tmsv_covariance(r))[0] for r in np.linspace(0, 2, 21)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_reid_numbers_at_r_069():
    var_x, var_p = inferred_variances(tmsv_covariance(0.69))
    res = reid_check(var_x, var_p)
    assert res.steering
    assert round(math.sqrt(var_x), 3) == 0.486
    assert round(res.product, 3) == 0.237


def test_reid_boundary_and_trivial_cases():
    var_x, var_p = inferred_variances(tmsv_covariance(0.0))
    res = reid_check(var_x, var_p)
    assert not res.steering and abs(res.product - 0.5) < 1e-12
    res = reid_check(1.0, 1.0)  # uncorrelated thermal noise: product 1
    assert not res.steering and res.product == 1.0
    with pytest.raises(InputError):
        reid_check(-0.1, 0.5)


def test_steering_for_every_positive_squeezing():
    for r in np.linspace(0.05, 3.0, 30):
        var_x, var_p = inferred_variances(tmsv_covariance(r))
        assert reid_check(var_x, var_p).steering


def test_symplectic_purity():
    # det(cm) is the product of the squared symplectic eigenvalues, each
    # >= 1/2 for a bona fide covariance, so det = 1/16 means both are 1/2
    for r in np.linspace(0.0, 3.0, 40):
        assert abs(np.linalg.det(tmsv_covariance(r).entries) - 1 / 16) <= 1e-10


def test_symplectic_form_shape():
    assert OMEGA.shape == (4, 4)
    np.testing.assert_allclose(OMEGA @ OMEGA, -np.eye(4), atol=1e-15)


def test_symmetric_loss():
    cm = tmsv_covariance(1.0)
    np.testing.assert_allclose(apply_symmetric_loss(cm, 1.0).entries, cm.entries, atol=1e-15)
    np.testing.assert_allclose(apply_symmetric_loss(cm, 0.0).entries, np.eye(4) / 2, atol=1e-15)
    apply_symmetric_loss(cm, 0.6)  # CovarianceMatrix refuses an unphysical result
    with pytest.raises(InputError):
        apply_symmetric_loss(cm, -0.1)


def test_degenerate_conditioning_warns_and_falls_back():
    m = np.eye(4)
    m[0, 0] = 0.0
    m[1, 1] = 1e9  # huge conjugate variance keeps the matrix bona fide
    cm = CovarianceMatrix(m)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        var_x, var_p = inferred_variances(cm)
    assert var_x == 1.0 and var_p == 1.0
    assert any("x_A" in str(w.message) for w in caught)


def test_reid_sweep_rows():
    rows = reid_sweep([0.0, 0.5, 1.0])
    assert len(rows) == 3 and len(rows[0]) == 5
    products = [row[3] for row in rows]
    assert products[0] > products[1] > products[2]
    assert rows[0][4] is False and rows[1][4] is True
