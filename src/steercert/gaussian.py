"""Two-mode Gaussian states and the Reid inferred-variance criterion.

Covariance matrices are ordered (x_A, p_A, x_B, p_B) with vacuum
variance 1/2.  Bob's variance inferred from Alice's outcome via the
optimal linear estimator is V(x_B) - C_x^2 / V(x_A); when the product of
the inferred standard deviations drops strictly below the vacuum bound
1/2 no conditional-state preparation by a classical channel can explain
the statistics, which certifies steering.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError

SYMMETRY_TOL = 1e-10
BONA_FIDE_TOL = 1e-9

# Symplectic form for (x_A, p_A, x_B, p_B).
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])


@dataclass(frozen=True)
class CovarianceMatrix:
    """4x4 real symmetric matrix satisfying cm + (i/2) Omega >= 0."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise InputError(f"covariance matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InputError("covariance matrix has non-finite entries (NaN or infinity)")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise InputError("covariance matrix is not symmetric")
        m = (m + m.T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        eigs = np.linalg.eigvalsh(m + 0.5j * OMEGA)
        if float(np.min(eigs)) < -BONA_FIDE_TOL:
            raise InputError(
                f"matrix violates the uncertainty bound: min eig(cm + (i/2)Omega) = {np.min(eigs):.3e}"
            )


def tmsv_covariance(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0."""
    r = float(r)
    if not 0 <= r < math.inf:
        raise InputError(f"squeezing parameter must be finite and >= 0, got {r}")
    try:
        c = math.cosh(2 * r) / 2.0
        s = math.sinh(2 * r) / 2.0
        if math.isinf(c):  # 2r itself overflowed to inf
            raise OverflowError
    except OverflowError:
        raise InputError(f"squeezing parameter too large for a finite covariance: {r}") from None
    diag = c * np.eye(2)
    off = s * np.diag([1.0, -1.0])
    return CovarianceMatrix(np.block([[diag, off], [off, diag]]))


def inferred_variances(cm: CovarianceMatrix) -> tuple:
    """Bob's conditional variances under the optimal linear estimate of
    (x_B, p_B) from (x_A, p_A): V(x_B) - C_x^2 / V(x_A) and the p analog.

    Degenerate conditioning (zero variance on Alice's quadrature) falls
    back to the unconditioned Bob variance with a warning.
    """
    m = cm.entries
    out = []
    for name, ia, ib in (("x", 0, 2), ("p", 1, 3)):
        va, vb, c = m[ia, ia], m[ib, ib], m[ia, ib]
        if va <= 0.0:
            warnings.warn(
                f"V({name}_A) = {va}; estimator undefined, reporting unconditioned V({name}_B)",
                stacklevel=2,
            )
            out.append(vb)
        else:
            # (c / va) * c, not c * c / va: c * c can overflow when the entries are huge
            out.append(vb - (c / va) * c)
    return tuple(out)


@dataclass(frozen=True)
class ReidResult:
    steering: bool
    product: float


def reid_check(var_x: float, var_p: float) -> ReidResult:
    """product = sqrt(var_x) * sqrt(var_p); steering iff product < 1/2
    strictly (the vacuum bound on the inferred uncertainty product)."""
    var_x, var_p = float(var_x), float(var_p)
    if var_x < 0 or var_p < 0:
        raise InputError(f"variances must be >= 0, got ({var_x}, {var_p})")
    product = math.sqrt(var_x) * math.sqrt(var_p)
    return ReidResult(steering=product < 0.5, product=product)


def apply_symmetric_loss(cm: CovarianceMatrix, eta: float) -> CovarianceMatrix:
    """Mix both modes with vacuum at transmissivity eta:
    cm -> eta*cm + (1-eta)/2 * I."""
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise InputError(f"transmissivity must lie in [0, 1], got {eta}")
    return CovarianceMatrix(eta * cm.entries + (1.0 - eta) * 0.5 * np.eye(4))


def reid_sweep(r_values: Sequence[float], eta: float = 1.0) -> list:
    """Rows (r, var_x_inf, var_p_inf, product, steering_flag), one per r."""
    rows = []
    for r in r_values:
        cm = apply_symmetric_loss(tmsv_covariance(r), eta)
        var_x, var_p = inferred_variances(cm)
        res = reid_check(var_x, var_p)
        rows.append((float(r), var_x, var_p, res.product, res.steering))
    return rows
