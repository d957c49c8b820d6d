"""Local-model membership decided by linear feasibility.

An assemblage admits a local hidden state model when it can be written
as a mixture of deterministic response strategies for Alice paired with
fixed states for Bob.  On a qubit, Bob's cone of positive operators is
the Lorentz cone |r| <= t, so the cheapest strategy-state pair against
any linear witness has a closed form.  The engine therefore decides
membership over the exact Bloch ball by column generation: a float
master LP over finitely many pure states either yields a model, or its
certificate, shifted until it is nonnegative on the whole ball, still
separates and is checked exactly, or pricing adds the states the
certificate likes least.  Pricing and the exact check both see the
certificate on strategy l and state n as alpha_l + beta_l.n; the check
decides those inequalities in integers.  Box-world assemblages get the
exact treatment: Bob's state polytope has deterministic tables as
vertices, so a rational LP decides membership outright.

The same machinery answers two more questions.  Predetermined values
(hidden states deterministic on a named family of Bob tests, a strictly
stronger demand than a local model) restrict the hidden states to a
finite set, which the column generation takes in whole, so certificates
are checked exactly at every point of that set.  Qubit measurements
{M_a|x} are jointly measurable exactly when the assemblage M_a|x / 2 has a local model, so
joint measurability is that local-model question and has no encoding
of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import linalg
from .boxworld import GptAssemblage
from .errors import InputError, InternalCheckError, NonMonotoneFamilyError
from .lp import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    FeasibilityProblem,
    FeasibilityVerdict,
    solve_feasibility_exact,
    solve_feasibility_float,
)
from .lp.problem import jsonify
from .scenario import Assemblage, Povm, matrix_to_json

ENUMERATION_CAP = 4096
MODEL_TOL = 1e-8


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per setting: responses[x] = a."""

    responses: tuple


@dataclass(frozen=True)
class SteeringVerdict(FeasibilityVerdict):
    """Feasibility verdict extended with reconstructed physical objects.
    A Feasible qubit verdict's ``model`` holds one weight per strategy:
    ``lhs_model.weights``, or tr G_lam / 2 of the ``parent_effects``."""

    lhs_model: object = None
    parent_effects: tuple | None = None

    def to_dict(self) -> dict:
        d = super().to_dict()
        if self.lhs_model is not None:
            d["lhs_model"] = self.lhs_model.to_dict()
        if self.parent_effects is not None:
            d["parent_effects"] = [matrix_to_json(g) for g in self.parent_effects]
        return d


@dataclass(frozen=True, eq=False)
class LhsModel:
    """Qubit local model: weights over strategies with one state each."""

    weights: np.ndarray
    hidden_states: tuple
    strategies: tuple

    def max_deviation(self, asm: Assemblage) -> float:
        """Largest entry of |sum of w_l omega_l over the strategies l filling
        block (x, a) - sigma_a|x| over every block.  ``strategies`` must be
        those of the assemblage's shape, in the order ``_shape_strategies``
        lists them."""
        strategies, touch = _shape_strategies((asm.outcomes,) * asm.settings)
        if self.strategies != strategies:
            raise InputError("the model's strategies are not those of the assemblage's shape")
        weighted = np.asarray(self.weights, dtype=float)[:, None, None] * np.asarray(self.hidden_states)
        want = asm.blocks.reshape(-1, asm.dim_b, asm.dim_b)
        return float(np.abs(np.einsum("lr,lij->rij", touch, weighted) - want).max())

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def to_dict(self) -> dict:
        keep = [i for i, w in enumerate(self.weights) if w > 0]
        return {
            "weights": [float(self.weights[i]) for i in keep],
            "strategies": [list(self.strategies[i].responses) for i in keep],
            "hidden_bloch": linalg.bloch_components(np.asarray(self.hidden_states)[keep])[:, 1:].tolist(),
        }


@dataclass(frozen=True, eq=False)
class BoxLhsModel:
    """Box-world local model: exact weights over pairs of deterministic
    strategies.  Pair l is Alice's ``strategies[l]`` with the hidden
    state ``hidden_states[l]``, Bob's deterministic strategy: its table
    over ``b_outcomes`` outcomes gives b = responses[y] with certainty."""

    weights: tuple
    hidden_states: tuple
    strategies: tuple
    b_outcomes: int

    def max_deviation(self, asm: GptAssemblage) -> Fraction:
        """The largest |rebuilt - input| over every (x, a, y, b): each
        weight is added into the rows (x, lam_A(x), y, lam_B(y)) of its
        pair, and the sums are compared with ``asm.counts`` / ``asm.den``,
        in integers over the least common denominator of the weights."""
        ints, scale = linalg.scaled_ints(self.weights)
        _, na, ny, nb = asm.shape
        rebuilt = [0] * len(asm.counts)
        for k, bob, alice in zip(ints, self.hidden_states, self.strategies):
            if k:
                for x, a in enumerate(alice.responses):
                    row = (x * na + a) * ny
                    for y, b in enumerate(bob.responses):
                        rebuilt[(row + y) * nb + b] += k
        den = asm.den
        dev = max((abs(r * den - c * scale) for r, c in zip(rebuilt, asm.counts)), default=0)
        return Fraction(dev, scale * den)

    def to_dict(self) -> dict:
        keep, nb = [i for i, w in enumerate(self.weights) if w > 0], self.b_outcomes
        return {
            "weights": [jsonify(self.weights[i]) for i in keep],
            "strategies": [list(self.strategies[i].responses) for i in keep],
            "hidden_tables": [
                {f"{y},{b}": f"{int(b == r)}/1" for y, r in enumerate(self.hidden_states[i].responses) for b in range(nb)}
                for i in keep
            ],
        }


# ---------------------------------------------------------------------------
# qubit cone by column generation on the Bloch ball

DEFAULT_MESH = 162
# master LPs per verdict; Werner states 1e-6 from the threshold take 5-22
MAX_ROUNDS = 60
# added to the certificate's shift so that rounding cannot leave a
# strategy's exact ball minimum a hair below zero
_SHIFT_PAD = 1e-12


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly uniform unit vectors from the golden-angle spiral."""
    if n < 4:
        raise InputError(f"need at least 4 vertices, got {n}")
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@functools.cache
def _seed_mesh(n: int) -> np.ndarray:
    """``fibonacci_sphere(n)``, built once per size and read-only."""
    pool = fibonacci_sphere(n)
    pool.flags.writeable = False
    return pool


def _seed_directions(mesh, directions) -> np.ndarray:
    """The Fibonacci mesh of ``mesh`` points plus the problem's own unit
    directions that it does not already contain.

    Pure conditional states and projective parent effects are extreme
    points of the ball, so seeding their exact directions lets the first
    master represent them.
    """
    if isinstance(mesh, bool) or not isinstance(mesh, (int, np.integer)):
        raise InputError(f"mesh must be an integer seed size, got {mesh!r}")
    pool = _seed_mesh(int(mesh))
    for d in directions:
        d = np.asarray(d, dtype=float)
        norm = float(np.linalg.norm(d))
        if norm > 1e-12 and np.max(pool @ d) < norm * (1.0 - 1e-12):
            pool = np.vstack([pool, d / norm])
    return pool


@functools.cache
def _shape_strategies(counts: tuple) -> tuple:
    """(strategies, touch) of the settings with outcome counts ``counts``,
    built once per shape.  ``strategies`` holds every response function
    x -> a, lexicographic in the response tuple; more than
    ENUMERATION_CAP of them is an input error.  touch[l, r] = 1 when
    strategy l fills block r, where block offsets[x] + a stands for
    context (x, a); ``touch`` is read-only."""
    count = math.prod(counts)
    if count > ENUMERATION_CAP:
        raise InputError(f"{count} deterministic strategies exceed the enumeration cap {ENUMERATION_CAP}")
    responses = list(itertools.product(*map(range, counts)))
    offsets = np.cumsum([0, *counts[:-1]])
    touch = np.zeros((count, sum(counts)))
    touch[np.arange(count)[:, None], offsets + np.array(responses)] = 1.0
    touch.flags.writeable = False
    return tuple(map(DeterministicStrategy, responses)), touch


def _columns(touch: np.ndarray, lam: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Constraint matrix whose column j is (1, dirs[j]) in the four rows
    (trace, then Pauli components) of every block strategy lam[j] fills."""
    t = touch[lam].T
    a = np.empty((touch.shape[1], 4, len(lam)))
    a[:, 0] = t
    a[:, 1:] = t[:, None, :] * dirs.T[None]
    return a.reshape(4 * touch.shape[1], len(lam))


def _per_strategy(touch: np.ndarray, lam: np.ndarray, dirs: np.ndarray, w) -> tuple:
    """(mass, vec): total weight and weighted Bloch sum of each strategy's columns."""
    w = np.asarray(w, dtype=float)
    mass = np.bincount(lam, weights=w, minlength=touch.shape[0])
    vec = np.zeros((touch.shape[0], 3))
    np.add.at(vec, lam, w[:, None] * dirs)
    return mass, vec


def _bloch_operators(t: np.ndarray, r: np.ndarray) -> tuple:
    """The 2x2 operators (t_l I + r_l . sigma) / 2, one per strategy l."""
    pauli = (r @ np.reshape(linalg.PAULIS, (3, 4))).reshape(-1, 2, 2)
    return tuple((np.multiply.outer(t, linalg.I2) + pauli) / 2.0)


def _exact_check(touch: np.ndarray, c, b, finite=None) -> bool:
    """Exact test, on the float64 values as stored, that c separates b
    from every column (1, n) of every strategy l: c.b < 0 and
    alpha_l + beta_l.n >= 0 at every admissible n, which on the ball
    (``finite`` None) is alpha_l >= 0 and alpha_l^2 >= |beta_l|^2.
    Each vector is scaled to integers, so nothing is rounded."""
    ci, _ = linalg.scaled_ints(c)
    bi, _ = linalg.scaled_ints(b)
    if sum(x * y for x, y in zip(ci, bi)) >= 0:
        return False
    ab = touch.astype(int) @ np.array(ci, dtype=object).reshape(-1, 4)
    alpha, beta = ab[:, 0], ab[:, 1:]
    if finite is None:
        return all(a >= 0 and a * a >= sum(p * p for p in bl) for a, bl in zip(alpha, beta))
    ni, d = linalg.scaled_ints(finite.ravel())
    values = alpha[:, None] * d + beta @ np.array(ni, dtype=object).reshape(-1, 3).T
    return all(v >= 0 for v in values.ravel())


def _column_generation(question, touch, rhs, mesh, rebuild, finite=None) -> SteeringVerdict:
    """Decide whether rhs, the block rows of a qubit assemblage, lies in
    the cone of the columns (1, n) over every strategy l (in the blocks
    ``touch[l]`` marks) and every admissible Bloch vector n: the whole
    Bloch ball when ``finite`` is None, otherwise the unit vectors listed
    in the array ``finite``.  LHS, PV and joint measurability all ask it.

    A master LP holds finitely many columns (l, n), starting from every
    strategy on every seed direction.  On the ball the seed is a
    Fibonacci mesh of ``mesh`` points plus the Bloch directions of the
    blocks of ``rhs``; a finite set is its own seed, so the first master
    already holds every column; seed and columns show only in ``meta``.
    A feasible master rebuilds rhs within MODEL_TOL, and only that:
    ``rebuild(mass, vec)`` turns its per-strategy sums into (verdict
    fields, deviation), the deviation must stay within MODEL_TOL, and
    ``mass`` is the verdict's ``model``.
    Otherwise the master certificate c is priced per strategy: on column
    (l, n) it is alpha_l + beta_l.n, with alpha_l and beta_l the trace and
    Pauli parts of c summed over the blocks l fills.  On the ball that is
    smallest at n = -beta_l/|beta_l|, where it is alpha_l - |beta_l|; on a
    finite set it is the minimum over the listed n (+inf for none).  mu is
    the least over l.  Raising every trace row of c by -mu/k, where k is
    the number of settings, makes c nonnegative on the admissible set and
    lowers c.b by |mu|; if c.b stays negative, ``_exact_check`` tests the
    same inequalities in integers and the certificate is returned.
    The master does not have to reach its optimum for that: the same
    shift and check (``shifted``) are handed to the float solver as its
    ``separate`` test, so the kernel offers them the Farkas candidate of
    every basis whose dual could survive the shift, and an infeasible
    master ends at the first one that passes (``master["early_stop"]``).
    If none does, the optimal master's certificate is shifted and
    checked as above.  The float solver judges nothing itself: every
    master with phase-one z above ``lp.TOL``, however slightly, is an
    infeasible master handled this way, and the verdict is Undecided
    only when the solver had no numbers to report.  If the shifted
    certificate does not separate, the strategies with a negative ball
    minimum enter with their best direction, after the columns already
    there; when no column can enter, which is always the case for a
    finite set, the verdict is Undecided.

    The first master starts from the all-artificial basis, and each later
    one from the final basis of the master before it, with its
    artificial indices moved past the new columns: that basis is still
    primal feasible, so only the new columns have to be priced in.  If
    this warm column generation ends Undecided after more than one
    master, the whole column generation runs again with every master
    started from the all-artificial basis, and its verdict is the one
    reported, with the warm run's reason in ``meta["cold_retry"]``.
    ``meta["pivots"]`` counts the pivots of every master solved.
    """
    ball = finite is None
    meta = {"question": question}
    if ball:
        seed = _seed_directions(mesh, rhs.reshape(-1, 4)[:, 1:])
        meta["mesh_size"] = int(mesh)
    else:
        seed = finite
    num_strategies = touch.shape[0]
    k = touch.sum(axis=1)[0]  # blocks per strategy: one per setting

    def shifted(c):
        """(cert, margin, certified, slack, beta): c with its trace rows
        raised until it is nonnegative on the admissible set, its -cert.b,
        whether it separates by ``_exact_check``, and c's per-strategy
        minimum and Pauli part."""
        ab = touch @ c.reshape(-1, 4)
        alpha, beta = ab[:, 0], ab[:, 1:]
        if ball:
            slack = alpha - np.linalg.norm(beta, axis=1)
        else:
            slack = (alpha[:, None] + beta @ finite.T).min(axis=1, initial=np.inf)
        cert = c.copy()
        cert[0::4] += (max(-float(slack.min()), 0.0) + _SHIFT_PAD) / k
        margin = -float(cert @ rhs)
        return cert, margin, margin > 0.0 and _exact_check(touch, cert, rhs, finite), slack, beta

    def separate(c):
        cert, _, certified, _, _ = shifted(c)
        return cert if certified else None

    def generate(warm):
        """The verdict of the column generation; with ``warm``, each master
        after the first starts from the final basis of the one before."""
        run = {**meta, "pivots": 0}

        def undecided(reason, **extra):
            return SteeringVerdict(UNDECIDED, meta={**run, "reason": reason, **extra})

        lam = np.repeat(np.arange(num_strategies), len(seed))
        dirs = np.tile(seed, (num_strategies, 1))
        basis = None
        for rounds in range(1, MAX_ROUNDS + 1):
            if basis is None:  # the all-artificial basis
                basis = np.arange(len(lam), len(lam) + len(rhs), dtype=np.intp)
            a = _columns(touch, lam, dirs)
            problem = FeasibilityProblem(a=a, b=rhs, num_vars=len(lam))
            master = solve_feasibility_float(problem, separate=separate, basis=basis)
            run.update(rounds=rounds, columns=len(lam), master=master.meta)
            run["pivots"] += master.meta["pivots"]
            if master.status == UNDECIDED:
                return undecided(f"master LP undecided: {master.meta['reason']}")
            if master.status == FEASIBLE:
                run["margin"] = master.meta["z"]
                mass, vec = _per_strategy(touch, lam, dirs, master.model)
                fields, dev = rebuild(mass, vec)
                if dev > MODEL_TOL:
                    return undecided("reconstruction exceeded the model tolerance", deviation=dev)
                return SteeringVerdict(FEASIBLE, model=mass, meta={**run, "model_deviation": dev}, **fields)

            if master.meta["early_stop"]:
                # ``separate`` has already shifted and exactly checked it
                cert, certified = master.certificate, True
                run["margin"] = -float(cert @ rhs)
            else:
                cert, run["margin"], certified, slack, beta = shifted(np.asarray(master.certificate, dtype=float))
            if certified:
                return SteeringVerdict(
                    INFEASIBLE,
                    certificate=cert,
                    meta={**run, "certified": "exactly, for the input as stored in float64"},
                )
            if run["margin"] > 0.0:
                return undecided("certificate failed exact check")

            beta_norm = np.linalg.norm(beta, axis=1)
            enter = np.flatnonzero((slack < 0.0) & (beta_norm > 0.0)) if ball else []
            if len(enter) == 0:
                return undecided("shifted certificate does not separate and no column can enter")
            if warm:
                basis[basis >= len(lam)] += len(enter)  # artificials follow the new columns
            else:
                basis = None
            lam = np.concatenate([lam, enter])
            dirs = np.vstack([dirs, -beta[enter] / beta_norm[enter, None]])
        return undecided("round limit")

    verdict = generate(warm=True)
    if verdict.is_undecided and verdict.meta["rounds"] > 1:
        cold = generate(warm=False)
        verdict = cold.with_meta(pivots=verdict.meta["pivots"] + cold.meta["pivots"], cold_retry=verdict.meta["reason"])
    return verdict


def _assemblage_rhs(asm: Assemblage) -> np.ndarray:
    """Trace and the three Pauli components of each block, x-major."""
    return linalg.bloch_components(asm.blocks).ravel()


def _local_models(question, asm: Assemblage, mesh, finite=None) -> SteeringVerdict:
    """Local-model membership of a qubit assemblage by ``_column_generation``,
    with hidden states on the whole Bloch ball or on the ``finite`` set."""
    if asm.dim_b != 2:
        raise InputError(f"qubit engine needs a qubit on Bob's side, got dim {asm.dim_b}")
    strategies, touch = _shape_strategies((asm.outcomes,) * asm.settings)

    def rebuild(mass, vec):
        # a strategy of weight 0 gets the maximally mixed state
        bloch = np.divide(vec, mass[:, None], out=np.zeros_like(vec), where=mass[:, None] > 0.0)
        states = _bloch_operators(np.ones_like(mass), bloch)
        model = LhsModel(weights=mass, hidden_states=states, strategies=strategies)
        dev = max(model.max_deviation(asm), abs(model.total_weight() - 1.0))
        return {"lhs_model": model}, dev

    return _column_generation(question, touch, _assemblage_rhs(asm), mesh, rebuild, finite)


def lhs_feasibility_qubit(asm: Assemblage, mesh: int = DEFAULT_MESH) -> SteeringVerdict:
    """Decide local-model membership over the exact qubit state space.

    Column (l, n) is strategy l paired with the pure state of Bloch
    vector n, so the local models are the cone over the whole Bloch ball
    (``_column_generation``).  Feasible ships a model that rebuilds the
    assemblage within MODEL_TOL; Infeasible ships a steering witness c,
    exactly checked to be nonnegative on every strategy and qubit state
    and negative on the assemblage.  ``mesh`` is the size of the seed
    mesh; it changes the work done, and a decided verdict does not
    depend on it.  Undecided names its reason in ``meta["reason"]``.
    """
    if not isinstance(asm, Assemblage):
        raise InputError(f"expected a qubit Assemblage, got {type(asm).__name__}")
    return _local_models("lhs", asm, mesh)


# ---------------------------------------------------------------------------
# box-world LHS membership (exact)

@functools.cache
def _box_lp(x_settings: int, a_outcomes: int, y_settings: int, b_outcomes: int) -> tuple:
    """(alice, bob, rows) of one box shape, built once per shape.

    Column j pairs Alice's strategy alice[j] with Bob's strategy bob[j],
    both lexicographic, and ``rows`` are the 0/1 rows (x, a, y, b) of the
    Kronecker product of their touch matrices, as tuples of Python ints
    (exact mode rejects numpy integers) that no caller may change.
    """
    alice, touch_a = _shape_strategies((a_outcomes,) * x_settings)
    bob, touch_b = _shape_strategies((b_outcomes,) * y_settings)
    rows = tuple(map(tuple, np.kron(touch_a, touch_b).T.astype(int).tolist()))
    return tuple(la for la in alice for _ in bob), bob * len(alice), rows


def lhs_feasibility_boxworld(asm: GptAssemblage) -> SteeringVerdict:
    """Exact local-model membership: deterministic tables span Bob's
    state polytope, so the rational LP always decides.

    Columns are the pairs (Alice strategy, Bob strategy), rows the keys
    (x, a, y, b), both lexicographic; the column of a pair holds 1 in
    every row it answers.  The LP is posed on the integers A v =
    ``asm.counts``, so w = v / ``asm.den`` rebuilds the table, and the
    certificate, which only needs the sign of c.b, serves both; the
    phase-one objective ``meta["z"]`` is divided by ``den`` back to table
    units.  Feasible ships a ``BoxLhsModel`` that ``max_deviation`` has
    checked to rebuild the table exactly.
    """
    if not isinstance(asm, GptAssemblage):
        raise InputError(f"expected a GptAssemblage, got {type(asm).__name__}")
    alice, bob, rows = _box_lp(*asm.shape)
    problem = FeasibilityProblem(a=rows, b=list(asm.counts), num_vars=len(rows[0]))
    verdict = solve_feasibility_exact(problem)
    den = asm.den
    meta = {"question": "lhs", "space": "box", **verdict.meta, "z": verdict.meta["z"] / den}

    if verdict.status == FEASIBLE:
        weights = [v / den if v else v for v in verdict.model]
        model = BoxLhsModel(weights=tuple(weights), hidden_states=bob, strategies=alice, b_outcomes=asm.b_outcomes)
        if model.max_deviation(asm) != 0:
            raise InternalCheckError("exact local model failed reconstruction")
        return SteeringVerdict(FEASIBLE, model=weights, lhs_model=model, meta=meta)
    return SteeringVerdict(
        INFEASIBLE, certificate=verdict.certificate, meta={**meta, "certified": "exactly, in rational arithmetic"}
    )


def box_pv(lhs: SteeringVerdict) -> SteeringVerdict:
    """The PV verdict of a box assemblage, given its LHS verdict: the
    vertices of Bob's state polytope are already deterministic tables,
    so the two questions coincide and only the labels differ."""
    return lhs.with_meta(question="pv", note="deterministic tables span the state polytope")


# ---------------------------------------------------------------------------
# predetermined-value membership

# how far a deterministic state may sit from a test's axis, and its
# outcome probabilities from 0 or 1
CERTAINTY_TOL = 1e-9


def _qubit_povms(povms, what: str) -> list:
    """``povms`` as a list, each entry checked to be a qubit POVM."""
    if not isinstance(povms, Iterable):
        raise InputError(f"{what} must be a list of qubit POVMs (dim 2 scenario.Povm), got {type(povms).__name__}")
    povms = list(povms)
    for p in povms:
        if not isinstance(p, Povm) or p.dim != 2:
            raise InputError(f"{what} must be qubit POVMs (dim 2 scenario.Povm), got {type(p).__name__}")
    return povms


def deterministic_bloch_set(tests):
    """Unit Bloch vectors answering every listed test deterministically.

    Returns None when no test constrains the states (all effects are
    trivially 0 or identity), otherwise an (n, 3) array, possibly empty.
    A valid qubit effect alpha*I + beta.sigma with beta != 0 takes value 1
    only at beta/|beta| and value 0 only at -beta/|beta|, so those two
    directions of every such effect are the only candidates.  A candidate
    is kept, once, when it lies within CERTAINTY_TOL of +-beta/|beta| for
    every such effect and every effect is within CERTAINTY_TOL of 0 or 1
    there; the direction test keeps nearly parallel axes apart, since a
    value test alone would admit an angle of about sqrt(CERTAINTY_TOL).
    """
    tol = CERTAINTY_TOL
    stack = np.array([e for povm in _qubit_povms(tests, "Bob's tests") for e in povm.effects]).reshape(-1, 2, 2)
    comps = linalg.bloch_components(stack) / 2.0  # effect = alpha I + beta . sigma
    alpha, beta = comps[:, 0], comps[:, 1:]
    norms = np.linalg.norm(beta, axis=1)
    axes = beta[norms > tol] / norms[norms > tol, None]
    if not len(axes) and (np.minimum(abs(alpha), abs(alpha - 1.0)) <= tol).all():
        return None

    # candidates +a, -a of each axis a, in that order, against every axis and effect
    cand = np.stack([axes, -axes], axis=1).reshape(-1, 3)
    offset = np.linalg.norm(cand[:, None] - axes, axis=2)
    across = np.linalg.norm(cand[:, None] + axes, axis=2)
    values = alpha + cand @ beta.T
    aligned = (np.minimum(offset, across) <= tol).all(axis=1)
    valued = (np.minimum(abs(values), abs(values - 1.0)) <= tol).all(axis=1)
    cand = cand[aligned & valued]
    close = np.linalg.norm(cand[:, None] - cand, axis=2) <= tol
    kept = []  # each certain candidate unless it repeats one kept before it
    for i in range(len(cand)):
        if not close[i, kept].any():
            kept.append(i)
    return cand[kept]


def pv_feasibility(asm, bob_tests=None, mesh: int = DEFAULT_MESH) -> SteeringVerdict:
    """Local-model membership with hidden states pinned to the test family.

    Hidden states must answer every test deterministically, so the qubit
    states collapse to the finitely many analytic deterministic states of
    ``deterministic_bloch_set`` (often none for incompatible tests).  The
    same column generation as ``lhs_feasibility_qubit`` decides it over
    that finite set: every column is in the first master, Feasible ships
    the model, and Infeasible ships a certificate c with c.b < 0 and
    alpha_l + beta_l.n >= 0 for every strategy l and deterministic state
    n, checked exactly in integers on the float64 values as stored.  When
    no test constrains the states this is the plain qubit local-model
    question, and ``mesh`` seeds its column generation over the Bloch
    ball.  Box-world vertices are already deterministic tables, so there
    the answer coincides with plain local-model membership.
    """
    if isinstance(asm, GptAssemblage):
        return box_pv(lhs_feasibility_boxworld(asm))
    if not isinstance(asm, Assemblage):
        raise InputError("expected an Assemblage or a GptAssemblage")

    det = deterministic_bloch_set(bob_tests)
    verdict = _local_models("pv", asm, mesh, finite=det)
    if det is None:
        return verdict.with_meta(note="no test constrains the hidden states")
    return verdict.with_meta(deterministic_vertices=int(len(det)))


# ---------------------------------------------------------------------------
# joint measurability

def joint_measurability(povms, mesh: int = DEFAULT_MESH) -> SteeringVerdict:
    """Does one parent measurement reproduce all given ones?

    Qubit POVMs {M_a|x} are jointly measurable exactly when the assemblage
    sigma_a|x = M_a|x / 2 has a local hidden state model (Uola, Budroni,
    Guehne & Pellonpaa, PRL 115, 230402 (2015); Quintino, Vertesi &
    Brunner, PRL 113, 160402 (2014)), so ``_column_generation`` decides
    it on the rows of M/2.  Feasible ships the parents G_lam = 2 sigma_lam,
    with ``model`` their weights tr G_lam / 2.
    Infeasible ships the exactly checked certificate c' as c'/2 on
    the effect rows, then 0.0 on four identity rows; both halvings are
    exact, so c.b = c'.b' and c is nonnegative on every parent column
    2(1, n).  The effects' Bloch axes join the seed, so projective
    parents (needed for commuting pairs) are in the first master.
    """
    povms = _qubit_povms(povms, "the measurements")
    if not povms:
        raise InputError("need at least one measurement")
    _, touch = _shape_strategies(tuple(p.num_outcomes for p in povms))
    effects = np.array([e for povm in povms for e in povm.effects])
    rhs = linalg.bloch_components(effects / 2).ravel()

    def rebuild(mass, vec):
        parents = _bloch_operators(2.0 * mass, 2.0 * vec)
        return {"parent_effects": parents}, _parent_deviation(parents, touch, effects)

    verdict = _column_generation("joint-measurability", touch, rhs, mesh, rebuild)
    if verdict.is_infeasible:
        verdict = replace(verdict, certificate=np.concatenate([verdict.certificate / 2, np.zeros(4)]))
    return verdict


def _parent_deviation(parents, touch, effects) -> float:
    """Largest entry of |sum G - I| and of |marginal - effect| over all effects."""
    got = np.einsum("lr,lij->rij", touch, np.asarray(parents))
    return float(max(np.abs(sum(parents) - np.eye(2)).max(), np.abs(got - effects).max()))


# ---------------------------------------------------------------------------
# threshold location

def threshold_scan(family, checker, lo, hi, width) -> tuple:
    """Bracket a feasibility boundary with two shared-cache bisections,
    each halted once its interval is at most ``width`` wide, or once no
    float lies strictly between its ends.

    The family must be feasible toward ``lo`` and infeasible toward
    ``hi``; a feasible verdict strictly above an infeasible one aborts
    the scan.  Undecided probes narrow the reported bracket instead of
    halting, so the result is (largest parameter certified feasible,
    smallest certified infeasible), either side None if never observed.
    Works for float parameters and exact Fractions alike.

    The bracket is only as fine as the checker's verdicts.  A Feasible
    qubit verdict means a model that rebuilds the input within MODEL_TOL,
    so just above a threshold such a model can still exist: Werner LHS
    at m = 2 and width 1e-10 gives lo = 1/sqrt(2) + 2.4e-10, a bracket
    that excludes the threshold, which widths of 1e-8 and above contain.
    """
    if not lo < hi:
        raise InputError(f"need lo < hi, got [{lo}, {hi}]")
    if not width > 0:
        raise InputError(f"bracket width must be positive, got {width}")  # bisection would never halt
    cache = {}
    feasible_at = []
    infeasible_at = []

    def probe(p):
        if p in cache:
            return cache[p]
        status = checker(family(p)).status
        cache[p] = status
        if status == FEASIBLE:
            feasible_at.append(p)
        elif status == INFEASIBLE:
            infeasible_at.append(p)
        if feasible_at and infeasible_at and max(feasible_at) > min(infeasible_at):
            raise NonMonotoneFamilyError(
                f"feasible at {max(feasible_at)} yet infeasible at {min(infeasible_at)}"
            )
        return status

    status_lo = probe(lo)
    status_hi = probe(hi)

    def bisect(keeps_low):
        a, b = lo, hi
        while b - a > width:
            mid = (a + b) / 2
            if not a < mid < b:  # a and b are adjacent floats
                break
            if keeps_low(probe(mid)):
                a = mid
            else:
                b = mid

    if status_lo == FEASIBLE and status_hi != FEASIBLE:
        bisect(lambda status: status == FEASIBLE)
    if status_hi == INFEASIBLE and status_lo != INFEASIBLE:
        bisect(lambda status: status != INFEASIBLE)

    p_feasible_max = max(feasible_at) if feasible_at else None
    p_infeasible_min = min(infeasible_at) if infeasible_at else None
    return p_feasible_max, p_infeasible_min
