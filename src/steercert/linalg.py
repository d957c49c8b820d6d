"""Dense complex linear algebra for small-dimension quantum objects.

Everything in this toolkit lives in dimension <= 8.  Matrices are plain
``numpy.ndarray`` objects with ``complex128`` entries; eigenvalues come
from ``numpy.linalg.eigvalsh``, which reads one triangle only, so the
positivity test first checks that its input is Hermitian.
"""

from __future__ import annotations

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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with (i,j),(k,l) block structure; dims multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return ``m`` as a complex array, raising ``InputError`` unless it is
    a finite square matrix within HERMITICITY_TOL of its adjoint."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{what} has non-finite entries (NaN or infinity)")
    dev = float(np.max(np.abs(m - dag(m))))
    if dev > HERMITICITY_TOL:
        raise InputError(f"{what} is not Hermitian (max deviation {dev:.3e} > {HERMITICITY_TOL:.1e})")
    return m


def partial_trace_A(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the first factor of a (dim_a*dim_b)-dimensional operator.

    Returns the dim_b x dim_b operator sum_i <i|_A m |i>_A.  The full
    trace is preserved: ``tr(result) == tr(m)``.
    """
    m = np.asarray(m, dtype=complex)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise ValueError(f"expected shape ({d}, {d}) for dims ({dim_a}, {dim_b}), got {m.shape}")
    return np.einsum("ijil->jl", m.reshape(dim_a, dim_b, dim_a, dim_b))


def psd_check(m: np.ndarray, what: str = "matrix") -> bool:
    """True iff the Hermitian matrix m has min eigenvalue >= -PSD_TOL.

    Raises ``InputError`` for non-Hermitian input, naming it ``what``.
    """
    eigs = np.linalg.eigvalsh(require_hermitian(m, what=what))
    return bool(eigs[0] >= -PSD_TOL)


def bloch_components(m: np.ndarray) -> tuple[float, float, float, float]:
    """Expansion coefficients of a 2x2 Hermitian matrix over {I, sx, sy, sz}.

    Returns (t, rx, ry, rz) such that m = (t*I + r . sigma) / 2, i.e.
    t = tr(m) and r_k = tr(m sigma_k).
    """
    m = np.asarray(m, dtype=complex)
    t = m.trace().real
    rx = (m[0, 1] + m[1, 0]).real
    ry = (1j * (m[0, 1] - m[1, 0])).real
    rz = (m[0, 0] - m[1, 1]).real
    return (t, rx, ry, rz)


def bloch_state(n: np.ndarray | tuple[float, float, float]) -> np.ndarray:
    """Qubit state (I + n . sigma) / 2 for a Bloch vector n (|n| <= 1)."""
    nx, ny, nz = (float(v) for v in n)
    return 0.5 * (I2 + nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z)


def scaled_ints(v) -> tuple:
    """(ints, d): the float64 entries of v as the Python ints v * d, where d
    is the largest of their denominators.  Every float64 is a dyadic
    rational, so d is a power of two and the scaling is exact."""
    ratios = [x.as_integer_ratio() for x in np.asarray(v, dtype=float).ravel().tolist()]
    d = max((q for _, q in ratios), default=1)
    return [p * (d // q) for p, q in ratios], d
