"""Seeded random generators for states, measurements, Kraus sets, LPs
and boxes, and exact checks of box-world verdicts."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from steercert import boxworld, linalg, scenario
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


def psd_sqrt_2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form PSD square root of a 2x2 PSD Hermitian matrix."""
    m = linalg.require_hermitian(m)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
    t = m.trace().real
    s = math.sqrt(max((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real, 0.0))
    denom = t + 2.0 * s
    if denom <= 0.0:
        return np.zeros((2, 2), dtype=complex)
    return (m + s * linalg.I2) / math.sqrt(denom)


def random_kraus_split(rng, effect: np.ndarray, pieces: int):
    """Kraus operators K_mu = W_mu sqrt(M) with sum W^dag W = identity:
    the W_mu are the stacked 2x2 blocks of the first two columns of a
    random (2*pieces)-dimensional unitary."""
    root = psd_sqrt_2x2(effect)
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


def integer_rows(a, b) -> tuple:
    """(rows, rhs): each rational row of ``a`` and its b_i times the lcm
    of their denominators, the same system in Python ints."""
    rows, rhs = [], []
    for row, bi in zip(a, b):
        scale = math.lcm(*(v.denominator for v in (*row, bi)))
        rows.append([int(v * scale) for v in row])
        rhs.append(int(bi * scale))
    return rows, rhs


def assert_model_valid(problem, verdict, tol=1e-7):
    w = np.asarray(verdict.model, dtype=float)
    assert w.min(initial=0.0) >= -tol
    b = np.asarray(problem.b, dtype=float)
    residual = np.asarray(problem.a, dtype=float).reshape(len(b), problem.num_vars) @ w - b
    assert np.abs(residual).max(initial=0.0) <= tol * max(1.0, np.abs(b).max(initial=0.0))


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


def box_lp(asm) -> FeasibilityProblem:
    """The box-world LHS LP, rebuilt here rather than taken from the engine.

    Rows (x, a, y, b) hold weight(x, a) * p(b | y; x, a), and columns are
    the pairs (Alice strategy, Bob strategy) in lexicographic order, where
    a column has a 1 in every row it answers.  Entries are Fractions.
    """
    nx, na, ny, nb = asm.x_settings, asm.a_outcomes, asm.y_settings, asm.b_outcomes
    keys = list(itertools.product(range(nx), range(na), range(ny), range(nb)))
    rhs = [asm.weight(x, a) * asm.state(x, a).prob(y, b) for x, a, y, b in keys]
    cols = list(
        itertools.product(
            itertools.product(range(na), repeat=nx), itertools.product(range(nb), repeat=ny)
        )
    )
    rows = [[Fraction(int(la[x] == a and lb[y] == b)) for la, lb in cols] for x, a, y, b in keys]
    return FeasibilityProblem(a=rows, b=rhs, num_vars=len(cols))


def assert_box_verdict_exact(asm, verdict):
    """Re-substitute a box-world LHS verdict in Fractions on ``box_lp``."""
    problem = box_lp(asm)
    a, b, n = problem.a, problem.b, problem.num_vars
    if verdict.is_feasible:
        w = verdict.model
        assert len(w) == n
        assert all(isinstance(v, Fraction) and v >= 0 for v in w)
        support = [j for j in range(n) if w[j]]
        assert [sum(row[j] * w[j] for j in support) for row in a] == b
        assert verdict.lhs_model.max_deviation(asm) == 0
    else:
        assert verdict.is_infeasible
        c = verdict.certificate
        assert len(c) == len(b)
        assert all(isinstance(v, Fraction) for v in c)
        assert sum(ci * bi for ci, bi in zip(c, b)) < 0
        for j in range(n):
            assert sum(ci * row[j] for ci, row in zip(c, a) if ci) >= 0


# ---------------------------------------------------------------------------
# qubit cone: row layouts, ball checks and a test-only mesh sandwich
#
# Rows come in blocks of four (trace, then the x, y, z Pauli parts): one
# block per context (x, a), and for joint measurability one more block
# for the identity.  A strategy l fills the blocks of the contexts
# (x, l(x)), plus the identity block; columns are the lexicographic
# strategies, as the engine enumerates them.


def _components(m) -> list:
    return [float(np.trace(m).real)] + [float(np.trace(m @ s).real) for s in linalg.PAULIS]


def lhs_rows(asm) -> np.ndarray:
    return np.concatenate(
        [_components(asm.block(x, a)) for x in range(asm.settings) for a in range(asm.outcomes)]
    )


def jm_rows(povms) -> np.ndarray:
    return np.concatenate([_components(e) for p in povms for e in p.effects] + [[2.0, 0.0, 0.0, 0.0]])


def lhs_touch(settings: int, outcomes: int) -> list:
    return [
        [x * outcomes + a for x, a in enumerate(strat)]
        for strat in itertools.product(range(outcomes), repeat=settings)
    ]


def jm_touch(povms) -> list:
    counts = [p.num_outcomes for p in povms]
    offsets = np.cumsum([0] + counts[:-1])
    return [
        [int(offsets[x]) + a for x, a in enumerate(strat)] + [sum(counts)]
        for strat in itertools.product(*[range(c) for c in counts])
    ]


def assert_separates_on_ball(c, b, touch):
    """c.b < 0, and c is nonnegative on every column (1, n) with |n| <= 1
    of every strategy: the trace part alpha_l of c over the strategy's
    blocks is at least the length of the Pauli part beta_l."""
    c = np.asarray(c, dtype=float)
    assert c.shape == b.shape
    assert c @ b < 0
    per_block = c.reshape(-1, 4)
    for blocks in touch:
        summed = per_block[blocks].sum(axis=0)
        assert summed[0] - np.linalg.norm(summed[1:]) >= 0.0


def deterministic_points(tests, tol=1e-9):
    """Unit Bloch vectors on which every test has 0/1 outcome probabilities.

    Candidates are the eigenbases of the tests' effects; None when no
    effect depends on the state, so every state qualifies.
    """
    def certain(n):
        rho = linalg.bloch_state(n)
        probs = [np.trace(e @ rho).real for povm in tests for e in povm.effects]
        return all(min(abs(q), abs(q - 1.0)) <= tol for q in probs)

    axes = [np.array(_components(e)[1:]) for povm in tests for e in povm.effects]
    axes = [r / np.linalg.norm(r) for r in axes if np.linalg.norm(r) > tol]
    if not axes:
        return None if certain(np.zeros(3)) else []
    points = []
    for n in (s * r for r in axes for s in (1.0, -1.0)):
        if certain(n) and all(np.linalg.norm(n - q) > tol for q in points):
            points.append(n)
    return points


def assert_pv_certificate(verdict, asm, tests):
    """A predetermined-value Infeasible verdict is certified, and its c has
    c.b < 0 and c.A >= 0 in Fractions, where the columns (1, n) run over
    every strategy and every deterministic state n of the tests (the
    whole ball when no test constrains the states)."""
    assert verdict.is_infeasible and "certified" in verdict.meta
    b = lhs_rows(asm)
    touch = lhs_touch(asm.settings, asm.outcomes)
    points = deterministic_points(tests)
    if points is None:
        assert_separates_on_ball(verdict.certificate, b, touch)
        return
    c = [Fraction(float(v)) for v in verdict.certificate]
    assert len(c) == len(b)
    assert sum(ci * Fraction(float(bi)) for ci, bi in zip(c, b)) < 0
    for blocks in touch:
        alpha = sum(c[4 * k] for k in blocks)
        beta = [sum(c[4 * k + i] for k in blocks) for i in (1, 2, 3)]
        for n in points:
            assert alpha + sum(bi * Fraction(float(ni)) for bi, ni in zip(beta, n)) >= 0


def assert_parents_rebuild(parents, povms, tol=1e-8):
    """Parent effects are PSD, sum to the identity and marginalize onto
    every effect through the lexicographic strategies."""
    counts = [p.num_outcomes for p in povms]
    strategies = list(itertools.product(*[range(c) for c in counts]))
    assert len(parents) == len(strategies)
    for g in parents:
        assert np.linalg.eigvalsh((g + g.conj().T) / 2).min() >= -tol
    assert np.max(np.abs(sum(parents) - np.eye(2))) <= tol
    for x, povm in enumerate(povms):
        for a, effect in enumerate(povm.effects):
            got = sum(g for g, s in zip(parents, strategies) if s[x] == a)
            assert np.max(np.abs(got - effect)) <= tol


def sandwich_verdict(b, touch, coeff: float, mesh: int = 162) -> str:
    """The mesh sandwich the engine once used, as a reference.

    The inner LP takes columns coeff * (1, n) over a Fibonacci mesh of
    unit vectors n; the outer LP inflates the mesh by 1/cos of its
    covering angle, the largest angle from any direction to the mesh,
    read off the facets of its convex hull.  Inner feasible proves a
    model, outer infeasible proves none exists; HiGHS decides both.
    """
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull

    i = np.arange(mesh)
    z = 1.0 - 2.0 * (i + 0.5) / mesh
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    verts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    # the nearest facet plane bounds the inscribed ball, so scaling by its
    # inverse distance makes the outer hull contain the whole Bloch ball
    inflate = (1.0 + 1e-9) / float((-ConvexHull(verts).equations[:, 3]).min())
    for scale, decided, status in ((1.0, "feasible", 0), (inflate, "infeasible", 2)):
        a = np.zeros((len(b), len(touch) * mesh))
        for li, blocks in enumerate(touch):
            cols = slice(li * mesh, (li + 1) * mesh)
            for blk in blocks:
                a[4 * blk, cols] += coeff
                a[4 * blk + 1 : 4 * blk + 4, cols] += coeff * scale * verts.T
        res = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if res.status == status:
            return decided
    return "undecided"


def random_qubit_assemblage(rng, settings: int):
    """A noisy random pure two-qubit state steered by random two-outcome
    measurements, half of them projective."""
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    v = rng.uniform(0.5, 1.0)
    rho = v * np.outer(psi, psi.conj()) + (1.0 - v) * np.eye(4) / 4.0
    povms = [
        scenario.pauli_povm(random_unit_vector(rng))
        if rng.random() < 0.5
        else scenario.Povm(label=f"M{x}", effects=random_povm_pair(rng))
        for x in range(settings)
    ]
    return scenario.assemblage_from_povms(rho, povms)


def random_noisy_povms(rng, count: int) -> list:
    """``count`` random two-outcome qubit POVMs, half of them projective,
    each smeared toward the trivial measurement by its own visibility."""
    out = []
    for x in range(count):
        eta = rng.uniform(0.5, 1.0)
        if rng.random() < 0.5:
            out.append(scenario.noisy_pauli_povm(random_unit_vector(rng), eta))
            continue
        effects = tuple(
            eta * e + (1.0 - eta) * np.trace(e).real / 2.0 * np.eye(2) for e in random_povm_pair(rng)
        )
        out.append(scenario.Povm(label=f"N{x}", effects=effects))
    return out
