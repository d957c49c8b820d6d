"""Seeded random generators for states, measurements, Kraus sets, LPs
and boxes, and exact checks of box-world verdicts."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from steercert import boxworld, linalg
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


def lifted_prbox(x_settings: int, y_settings: int) -> boxworld.GptAssemblage:
    """PR box on settings lifted by x mod 2 and y mod 2: b = a xor ((x%2) and (y%2))."""
    entries = {}
    for x in range(x_settings):
        for a in range(2):
            table = {
                (y, b): Fraction(int(b == a ^ ((x % 2) & (y % 2))))
                for y in range(y_settings)
                for b in range(2)
            }
            entries[(x, a)] = (Fraction(1, 2), boxworld.GptState(y_settings, 2, table))
    return boxworld.GptAssemblage(x_settings, 2, entries)


def deterministic_box(alice, bob, a_outcomes: int = 2, b_outcomes: int = 2) -> boxworld.GptAssemblage:
    """Alice answers alice[x] and Bob answers bob[y], both with certainty."""
    table = {
        (y, b): Fraction(int(b == bob[y])) for y in range(len(bob)) for b in range(b_outcomes)
    }
    state = boxworld.GptState(len(bob), b_outcomes, table)
    entries = {
        (x, a): (Fraction(int(a == alice[x])), state)
        for x in range(len(alice))
        for a in range(a_outcomes)
    }
    return boxworld.GptAssemblage(len(alice), a_outcomes, entries)


def assert_box_verdict_exact(asm, verdict):
    """Re-substitute a box-world LHS verdict in Fractions.

    The LP is rebuilt here, not taken from the engine: rows (x, a, y, b)
    hold weight(x, a) * p(b | y; x, a), and columns are the pairs (Alice
    strategy, Bob strategy) in lexicographic order, where a column has
    a 1 in every row it answers.
    """
    nx, na, ny, nb = asm.x_settings, asm.a_outcomes, asm.y_settings, asm.b_outcomes
    keys = list(itertools.product(range(nx), range(na), range(ny), range(nb)))
    rhs = [asm.weight(x, a) * asm.state(x, a).prob(y, b) for x, a, y, b in keys]
    cols = list(
        itertools.product(
            itertools.product(range(na), repeat=nx), itertools.product(range(nb), repeat=ny)
        )
    )

    def hits(col):
        la, lb = col
        return [i for i, (x, a, y, b) in enumerate(keys) if la[x] == a and lb[y] == b]

    if verdict.is_feasible:
        w = verdict.model
        assert len(w) == len(cols)
        assert all(isinstance(v, Fraction) and v >= 0 for v in w)
        rebuilt = [Fraction(0)] * len(keys)
        for wj, col in zip(w, cols):
            if wj:
                for i in hits(col):
                    rebuilt[i] += wj
        assert rebuilt == rhs
        assert verdict.lhs_model.max_deviation(asm) == 0
    else:
        assert verdict.is_infeasible
        c = verdict.certificate
        assert len(c) == len(keys)
        assert all(isinstance(v, Fraction) for v in c)
        assert sum(ci * ri for ci, ri in zip(c, rhs)) < 0
        for col in cols:
            assert sum(c[i] for i in hits(col)) >= 0
