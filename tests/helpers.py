"""Seeded random generators for states, measurements, Kraus sets and LPs."""

from __future__ import annotations

import numpy as np

from steercert import linalg
from steercert.lp import FeasibilityProblem


def random_state(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ linalg.dag(g)
    return rho / rho.trace().real


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + linalg.dag(g)) / 2.0


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_povm_pair(rng, dim: int = 2):
    """Two-outcome POVM: sandwich two random PSD operators by their sum."""
    mats = []
    for _ in range(2):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(g @ linalg.dag(g) + 1e-6 * np.eye(dim))
    total = mats[0] + mats[1]
    eigs, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(eigs**-0.5) @ linalg.dag(vecs)
    return tuple(inv_sqrt @ m @ inv_sqrt for m in mats)


def random_kraus_split(rng, effect: np.ndarray, pieces: int):
    """Kraus operators K_mu = W_mu sqrt(M) with sum W^dag W = identity:
    the W_mu are the stacked 2x2 blocks of the first two columns of a
    random (2*pieces)-dimensional unitary."""
    root = linalg.psd_sqrt_2x2(effect)
    u = random_unitary(rng, 2 * pieces)
    cols = u[:, :2]
    return tuple(cols[2 * i : 2 * i + 2, :] @ root for i in range(pieces))


def feasible_instance(rng, rows, cols):
    # b is constructed inside the cone, so feasibility is known by construction
    a = rng.normal(size=(rows, cols))
    w_true = np.abs(rng.normal(size=cols))
    w_true[rng.integers(0, cols)] = 0.0
    return FeasibilityProblem(a=a, b=a @ w_true, num_vars=cols), w_true


def infeasible_instance(rng, rows, cols):
    # every column is tilted to satisfy y . a_j <= 0 while y . b > 0,
    # so a Farkas vector exists by construction
    y = rng.normal(size=rows)
    y /= np.linalg.norm(y)
    a = rng.normal(size=(rows, cols))
    for j in range(cols):
        overlap = y @ a[:, j]
        if overlap > -0.1:
            a[:, j] -= (overlap + 0.5) * y
    b = rng.normal(size=rows)
    b += (1.0 - y @ b) * y
    return FeasibilityProblem(a=a, b=b, num_vars=cols)


def assert_model_valid(problem, verdict, tol=1e-7):
    w = np.asarray(verdict.model, dtype=float)
    assert w.min(initial=0.0) >= -tol
    residual = np.asarray(problem.a, dtype=float) @ w - np.asarray(problem.b, dtype=float)
    assert np.max(np.abs(residual)) <= tol * max(1.0, np.max(np.abs(problem.b)))


def assert_certificate_valid(problem, verdict, tol=1e-7):
    c = np.asarray(verdict.certificate, dtype=float)
    a = np.asarray(problem.a, dtype=float)
    b = np.asarray(problem.b, dtype=float)
    assert (c @ a).min(initial=0.0) >= -tol
    assert c @ b < 0
