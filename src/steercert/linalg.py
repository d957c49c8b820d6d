"""Dense complex linear algebra for small-dimension quantum objects.

Everything in this toolkit lives in dimension <= 8.  Matrices are plain
``numpy.ndarray`` objects with ``complex128`` entries; eigenvalues come
from ``numpy.linalg.eigvalsh``, which reads one triangle only, so the
positivity test first checks that its input is Hermitian.  The checks
and ``bloch_components`` also take a stack of matrices on the last two
axes, so that a whole POVM or assemblage is checked in one pass.
``scaled_ints`` writes exact rationals as Python ints over their least
common denominator, the form in which every exact check sums.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

# Max-norm distance from M to its adjoint beyond which we refuse to treat
# M as Hermitian.
HERMITICITY_TOL = 1e-10

# Eigenvalue slack of the positive-semidefiniteness check.
PSD_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def _at(text, index) -> str:
    return text(*index) if callable(text) else text


def _refuse(flags, what, problem) -> None:
    """Raise ``InputError`` for the first matrix, in index order, that
    ``flags`` marks: ``what`` names it and ``problem`` says what is
    wrong, each a str or a function of the matrix's index in the stack."""
    if flags.any():
        index = np.unravel_index(int(flags.argmax()), flags.shape)
        raise InputError(f"{_at(what, index)} {_at(problem, index)}")


def require_square(m, what="matrix") -> np.ndarray:
    """Return ``m`` as a complex array, raising ``InputError`` unless it is
    a square matrix, or a stack of them on its last two axes, with finite
    entries only.  ``what`` names the matrix; for a stack it maps a
    matrix's index in the stack to its name."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        try:
            name = _at(what, (0,) * (m.ndim - 2))
        except TypeError:  # ``what`` names the matrices of a stack of another rank
            name = "matrix stack"
        raise InputError(f"{name} must be square, got shape {m.shape}")
    _refuse(~np.isfinite(m).all(axis=(-2, -1)), what, "has non-finite entries (NaN or infinity)")
    return m


def require_hermitian(m, what="matrix") -> np.ndarray:
    """``require_square(m, what)``, then ``InputError`` unless every matrix
    is within HERMITICITY_TOL of its adjoint."""
    m = require_square(m, what)
    dev = np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    _refuse(dev > HERMITICITY_TOL, what,
            lambda *i: f"is not Hermitian (max deviation {dev[i]:.3e} > {HERMITICITY_TOL:.1e})")
    return m


def require_psd(m, what="matrix") -> np.ndarray:
    """``require_hermitian(m, what)``, then ``InputError`` unless every
    matrix has min eigenvalue >= -PSD_TOL, by one ``eigvalsh`` call."""
    m = require_hermitian(m, what)
    _refuse(np.linalg.eigvalsh(m)[..., 0] < -PSD_TOL, what, "is not positive semidefinite")
    return m


def bloch_components(m) -> np.ndarray:
    """Expansion coefficients of a 2x2 Hermitian matrix over {I, sx, sy, sz}.

    Returns (t, rx, ry, rz) such that m = (t*I + r . sigma) / 2, i.e.
    t = tr(m) and r_k = tr(m sigma_k).  For a stack of matrices on the
    last two axes the coefficients fill a last axis of length 4; each is
    formed by the same elementwise formula as for one matrix.
    """
    m = np.asarray(m, dtype=complex)
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    return np.stack([(m00 + m11).real, (m01 + m10).real, (1j * (m01 - m10)).real, (m00 - m11).real], axis=-1)


def bloch_state(n: np.ndarray | tuple[float, float, float]) -> np.ndarray:
    """Qubit state (I + n . sigma) / 2 for a Bloch vector n (|n| <= 1)."""
    nx, ny, nz = (float(v) for v in n)
    return 0.5 * (I2 + nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z)


def scaled_ints(v) -> tuple:
    """(ints, d): the entries of the sequence v (a 1-D float64 array is
    one) as the Python ints v * d, d the lcm of their denominators (1 for
    none), so gcd(d, *ints) = 1.  Ints, Fractions and floats are read
    exactly by ``as_integer_ratio``; for floats d is a power of two."""
    ratios = [x.as_integer_ratio() for x in v]
    d = math.lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d
