"""Local-model membership decided by linear feasibility.

An assemblage admits a local hidden state model when it can be written
as a mixture of deterministic response strategies for Alice paired with
fixed states for Bob.  Over the qubit state space that membership is a
cone problem; this engine sandwiches the cone between inner and outer
Bloch polytopes so one LP feasibility answer certifies a genuine model
and the other certifies a steering witness, with an explicit undecided
band in between.  Box-world assemblages get the exact treatment: Bob's
state polytope has deterministic tables as vertices, so a rational LP
decides membership outright.

The same machinery answers two sharper questions: whether hidden states
can be predetermined (deterministic on a named family of Bob tests, a
strictly stronger demand than a local model) and whether a collection of
Alice measurements is jointly measurable (a parent measurement with
deterministic post-processing reproduces them).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .boxworld import GptAssemblage, GptState
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
from .polytope import DEFAULT_MESH, _SAFETY, BlochPolytope, covering_angle, mesh_pair
from .scenario import Assemblage, Povm

ENUMERATION_CAP = 4096
MODEL_TOL = 1e-8
DEFAULT_LP_TOL = 1e-9


@dataclass(frozen=True)
class DeterministicStrategy:
    """One outcome per setting: responses[x] = a."""

    responses: tuple


def enumerate_strategies(
    num_settings: int, num_outcomes, cap: int = ENUMERATION_CAP
) -> list:
    """All response functions, lexicographic in the response tuple.

    ``num_outcomes`` is one count shared by every setting, or a sequence
    giving each setting its own count.
    """
    counts = (
        [num_outcomes] * num_settings if np.ndim(num_outcomes) == 0 else list(num_outcomes)
    )
    if num_settings < 1 or len(counts) != num_settings or min(counts) < 1:
        raise InputError("need at least one setting and one outcome per setting")
    count = math.prod(counts)
    if count > cap:
        raise InputError(
            f"{count} deterministic strategies exceed the enumeration cap {cap}"
        )
    return [
        DeterministicStrategy(responses=r)
        for r in itertools.product(*[range(c) for c in counts])
    ]


@dataclass(frozen=True)
class SteeringVerdict(FeasibilityVerdict):
    """Feasibility verdict extended with reconstructed physical objects."""

    lhs_model: object = None
    parent_effects: tuple | None = None

    def to_dict(self) -> dict:
        d = super().to_dict()
        if self.lhs_model is not None:
            d["lhs_model"] = self.lhs_model.to_dict()
        if self.parent_effects is not None:
            d["parent_effects"] = [
                [[[float(v.real), float(v.imag)] for v in row] for row in g]
                for g in self.parent_effects
            ]
        return d


@dataclass(frozen=True, eq=False)
class LhsModel:
    """Qubit local model: weights over strategies with one state each."""

    weights: np.ndarray
    hidden_states: tuple
    strategies: tuple

    def reconstruct(self, x: int, a: int) -> np.ndarray:
        out = np.zeros_like(self.hidden_states[0])
        for w, omega, strat in zip(self.weights, self.hidden_states, self.strategies):
            if strat.responses[x] == a:
                out = out + w * omega
        return out

    def max_deviation(self, asm: Assemblage) -> float:
        dev = 0.0
        for x in range(asm.settings):
            for a in range(asm.outcomes):
                dev = max(dev, float(np.max(np.abs(self.reconstruct(x, a) - asm.block(x, a)))))
        return dev

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def to_dict(self) -> dict:
        keep = [i for i, w in enumerate(self.weights) if w > 0]
        return {
            "weights": [float(self.weights[i]) for i in keep],
            "strategies": [list(self.strategies[i].responses) for i in keep],
            "hidden_bloch": [
                [float(v) for v in linalg.bloch_components(self.hidden_states[i])[1:]]
                for i in keep
            ],
        }


@dataclass(frozen=True, eq=False)
class BoxLhsModel:
    """Box-world local model: exact weights over strategy/table pairs."""

    weights: tuple
    hidden_states: tuple
    strategies: tuple

    def reconstruct(self, x: int, a: int, y: int, b: int) -> Fraction:
        total = Fraction(0)
        for w, state, strat in zip(self.weights, self.hidden_states, self.strategies):
            if w and strat.responses[x] == a:
                total += w * state.prob(y, b)
        return total

    def max_deviation(self, asm: GptAssemblage) -> Fraction:
        dev = Fraction(0)
        for x in range(asm.x_settings):
            for a in range(asm.a_outcomes):
                weight, state = asm.entries[(x, a)]
                for y in range(state.y_settings):
                    for b in range(state.b_outcomes):
                        d = abs(self.reconstruct(x, a, y, b) - weight * state.prob(y, b))
                        if d > dev:
                            dev = d
        return dev

    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def to_dict(self) -> dict:
        keep = [i for i, w in enumerate(self.weights) if w > 0]
        return {
            "weights": [f"{self.weights[i].numerator}/{self.weights[i].denominator}" for i in keep],
            "strategies": [list(self.strategies[i].responses) for i in keep],
            "hidden_tables": [
                {f"{y},{b}": f"{v.numerator}/{v.denominator}" for (y, b), v in self.hidden_states[i].table.items()}
                for i in keep
            ],
        }


# ---------------------------------------------------------------------------
# qubit LHS membership

def _assemblage_rhs(asm: Assemblage) -> np.ndarray:
    """Per (x, a): trace and three Pauli components of the block."""
    b = np.empty(4 * asm.settings * asm.outcomes)
    for x in range(asm.settings):
        for a in range(asm.outcomes):
            s = asm.block(x, a)
            r = 4 * (x * asm.outcomes + a)
            b[r] = s.trace().real
            for k, pauli in enumerate(linalg.PAULIS):
                b[r + 1 + k] = (s @ pauli).trace().real
    return b


def _strategy_vertex_matrix(
    strategies, settings: int, outcomes: int, bloch: np.ndarray, coeff: float = 1.0
) -> np.ndarray:
    """Constraint matrix with one column per (strategy, vertex) pair.

    Column (lam, v) carries coeff * (1, bloch[v]) in the four component
    rows of every context (x, a) the strategy answers with a.
    """
    nv = bloch.shape[0]
    comp = np.empty((4, nv))
    comp[0] = 1.0
    comp[1:] = bloch.T
    comp *= coeff
    a_mat = np.zeros((4 * settings * outcomes, len(strategies) * nv))
    for li, strat in enumerate(strategies):
        for x in range(settings):
            r = 4 * (x * outcomes + strat.responses[x])
            a_mat[r : r + 4, li * nv : (li + 1) * nv] = comp
    return a_mat


def _model_from_weights(w, strategies, bloch: np.ndarray) -> LhsModel:
    nv = bloch.shape[0]
    weights = []
    states = []
    for li in range(len(strategies)):
        chunk = np.asarray(w[li * nv : (li + 1) * nv], dtype=float)
        p = float(chunk.sum())
        if p <= 0.0:
            weights.append(0.0)
            states.append(np.eye(2, dtype=complex) / 2.0)
            continue
        vec = (chunk @ bloch) / p
        weights.append(p)
        states.append(linalg.bloch_state(vec))
    return LhsModel(
        weights=np.asarray(weights), hidden_states=tuple(states), strategies=tuple(strategies)
    )


def _resolve_mesh(mesh) -> tuple:
    if isinstance(mesh, int):
        return mesh_pair(mesh)
    inner, outer = mesh
    if not (isinstance(inner, BlochPolytope) and isinstance(outer, BlochPolytope)):
        raise InputError("mesh must be a vertex count or an (inner, outer) polytope pair")
    if inner.kind != "inner" or outer.kind != "outer":
        raise InputError("mesh pair must be ordered (inner, outer)")
    return inner, outer


def _augment_mesh(inner: BlochPolytope, outer: BlochPolytope, directions) -> tuple:
    """Add problem-specific unit directions to the mesh vertex set.

    Extremal targets (pure conditional states, projective parent
    effects) are representable only when their exact Bloch direction is
    a vertex, since pure states are extreme points of the ball.  Unit
    vertices are valid states wherever they sit, so the inner guarantee
    is unaffected; the outer scale is recomputed from the covering angle
    of the enlarged set, which can only tighten.
    """
    fresh = []
    have = inner.vertices
    for d in directions:
        d = np.asarray(d, dtype=float)
        norm = float(np.linalg.norm(d))
        if norm <= 1e-12:
            continue
        d = d / norm
        pool = have if not fresh else np.vstack([have, fresh])
        if np.max(pool @ d) < 1.0 - 1e-12:
            fresh.append(d)
    if not fresh:
        return inner, outer
    verts = np.vstack([have, fresh])
    inflate = (1.0 + _SAFETY) / np.cos(covering_angle(verts))
    return (
        BlochPolytope(vertices=verts, kind="inner", scale=1.0),
        BlochPolytope(vertices=verts, kind="outer", scale=float(inflate)),
    )


def _block_directions(asm: Assemblage) -> list:
    dirs = []
    for s in asm.sigma.values():
        _, rx, ry, rz = linalg.bloch_components(s)
        dirs.append(np.array([rx, ry, rz]))
    return dirs


def _effect_directions(povms) -> list:
    dirs = []
    for povm in povms:
        for effect in povm.effects:
            _, beta = _effect_components(effect)
            dirs.append(beta)
    return dirs


def lhs_feasibility_qubit(
    asm: Assemblage,
    mesh=DEFAULT_MESH,
    tol: float = DEFAULT_LP_TOL,
    cap: int = ENUMERATION_CAP,
    adapt: bool = True,
) -> SteeringVerdict:
    """Sandwich the local-model cone between two polytope LPs.

    Inner feasible: a genuine model over valid states is returned.
    Outer infeasible: the certificate separates the assemblage from a
    strictly larger cone, so no local model exists.  Anything else is an
    honest undecided with the two phase-one margins as the gap.  With
    ``adapt`` the mesh gains the blocks' own Bloch directions, so pure
    conditional states stay representable.
    """
    if asm.dim_b != 2:
        raise InputError(f"polytope engine needs a qubit on Bob's side, got dim {asm.dim_b}")
    inner, outer = _resolve_mesh(mesh)
    if adapt:
        inner, outer = _augment_mesh(inner, outer, _block_directions(asm))
    strategies = enumerate_strategies(asm.settings, asm.outcomes, cap=cap)
    rhs = _assemblage_rhs(asm)
    base_meta = {
        "question": "lhs",
        "mesh_size": inner.num_vertices,
        "inflate": outer.scale,
        "tol": tol,
    }

    a_in = _strategy_vertex_matrix(strategies, asm.settings, asm.outcomes, inner.bloch_columns())
    v_in = solve_feasibility_float(
        FeasibilityProblem(a=a_in, b=rhs, num_vars=a_in.shape[1]), tol=tol
    )
    if v_in.status == FEASIBLE:
        model = _model_from_weights(v_in.model, strategies, inner.bloch_columns())
        dev = model.max_deviation(asm)
        if dev <= MODEL_TOL and abs(model.total_weight() - 1.0) <= MODEL_TOL:
            return SteeringVerdict(
                FEASIBLE,
                model=v_in.model,
                lhs_model=model,
                meta={**base_meta, "inner": v_in.meta, "model_deviation": dev},
            )
        v_in = v_in.with_meta(reason="reconstruction exceeded the model tolerance", deviation=dev)

    a_out = _strategy_vertex_matrix(strategies, asm.settings, asm.outcomes, outer.bloch_columns())
    v_out = solve_feasibility_float(
        FeasibilityProblem(a=a_out, b=rhs, num_vars=a_out.shape[1]), tol=tol
    )
    if v_out.status == INFEASIBLE:
        return SteeringVerdict(
            INFEASIBLE,
            certificate=v_out.certificate,
            meta={**base_meta, "inner": v_in.meta, "outer": v_out.meta},
        )
    gap = (v_in.meta.get("z", float("nan")), v_out.meta.get("z", float("nan")))
    return SteeringVerdict(
        UNDECIDED, gap=gap, meta={**base_meta, "inner": v_in.meta, "outer": v_out.meta}
    )


# ---------------------------------------------------------------------------
# box-world LHS membership (exact)

def lhs_feasibility_boxworld(asm: GptAssemblage, cap: int = ENUMERATION_CAP) -> SteeringVerdict:
    """Exact local-model membership: deterministic tables span Bob's
    state polytope, so the rational LP decides with no undecided band."""
    ny, nb = asm.y_settings, asm.b_outcomes
    alice = enumerate_strategies(asm.x_settings, asm.a_outcomes, cap=cap)
    bob = enumerate_strategies(ny, nb, cap=cap)

    pairs = [(la, lb) for la in alice for lb in bob]
    one, zero = Fraction(1), Fraction(0)
    rows = []
    rhs = []
    for x in range(asm.x_settings):
        for a in range(asm.a_outcomes):
            weight, state = asm.entries[(x, a)]
            for y in range(ny):
                for b in range(nb):
                    rows.append(
                        [
                            one if la.responses[x] == a and lb.responses[y] == b else zero
                            for la, lb in pairs
                        ]
                    )
                    rhs.append(weight * state.prob(y, b))
    problem = FeasibilityProblem(a=rows, b=rhs, num_vars=len(pairs))
    verdict = solve_feasibility_exact(problem)
    meta = {"question": "lhs", "space": "box", **verdict.meta}

    if verdict.status == FEASIBLE:
        tables = {}
        for lb in bob:
            tables[lb.responses] = GptState(
                ny,
                nb,
                {
                    (y, b): Fraction(1) if lb.responses[y] == b else Fraction(0)
                    for y in range(ny)
                    for b in range(nb)
                },
            )
        model = BoxLhsModel(
            weights=tuple(verdict.model),
            hidden_states=tuple(tables[lb.responses] for _, lb in pairs),
            strategies=tuple(la for la, _ in pairs),
        )
        if model.max_deviation(asm) != 0:
            raise InternalCheckError("exact local model failed reconstruction")
        return SteeringVerdict(FEASIBLE, model=verdict.model, lhs_model=model, meta=meta)
    return SteeringVerdict(INFEASIBLE, certificate=verdict.certificate, meta=meta)


# ---------------------------------------------------------------------------
# predetermined-value membership

def _effect_components(effect: np.ndarray) -> tuple:
    """(alpha, beta) with effect = alpha * I + beta . sigma."""
    t, rx, ry, rz = linalg.bloch_components(effect)
    return t / 2.0, np.array([rx, ry, rz]) / 2.0


def deterministic_bloch_set(tests, tol: float = 1e-9):
    """Unit Bloch vectors answering every listed test deterministically.

    Returns None when no test constrains the states (all effects are
    trivially 0 or identity), otherwise an (n, 3) array, possibly empty.
    A valid qubit effect alpha*I + beta.sigma takes value 1 only where
    beta-aligned states make alpha + |beta| reach 1, and value 0 only at
    the antipode when alpha = |beta|; anything else rules the state out.
    """
    current = None
    for povm in tests:
        if povm.dim != 2:
            raise InputError("deterministic state sets are defined for qubit tests")
        test_set = None  # None = unconstrained by this test so far
        for effect in povm.effects:
            alpha, beta = _effect_components(effect)
            blen = float(np.linalg.norm(beta))
            if blen <= tol:
                if min(abs(alpha), abs(alpha - 1.0)) <= tol:
                    continue  # trivial effect, deterministic everywhere
                test_set = np.zeros((0, 3))
                break
            points = []
            if abs(alpha + blen - 1.0) <= tol:
                points.append(beta / blen)
            if abs(alpha - blen) <= tol:
                points.append(-beta / blen)
            pts = np.asarray(points).reshape(-1, 3)
            test_set = pts if test_set is None else _intersect_points(test_set, pts)
            if len(test_set) == 0:
                break
        if test_set is None:
            continue
        # keep only points where every effect of this test is deterministic
        keep = []
        for n in test_set:
            ok = True
            for effect in povm.effects:
                alpha, beta = _effect_components(effect)
                val = alpha + float(beta @ n)
                if min(abs(val), abs(val - 1.0)) > 10 * tol:
                    ok = False
                    break
            if ok:
                keep.append(n)
        test_set = np.asarray(keep).reshape(-1, 3)
        current = test_set if current is None else _intersect_points(current, test_set)
    return current


def _intersect_points(first: np.ndarray, second: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    if len(first) == 0 or len(second) == 0:
        return np.zeros((0, 3))
    keep = [p for p in first if np.min(np.linalg.norm(second - p, axis=1)) <= tol]
    return np.asarray(keep).reshape(-1, 3)


def pv_feasibility(
    asm,
    bob_tests=None,
    mesh=DEFAULT_MESH,
    tol: float = DEFAULT_LP_TOL,
    cap: int = ENUMERATION_CAP,
) -> SteeringVerdict:
    """Local-model membership with hidden states pinned to the test family.

    Hidden states must answer every test deterministically, so the qubit
    vertex set collapses to the analytic deterministic states (often
    empty for incompatible tests, making infeasibility exact rather than
    mesh-limited).  Box-world vertices are already deterministic tables,
    so there the answer coincides with plain local-model membership.
    """
    if isinstance(asm, GptAssemblage):
        verdict = lhs_feasibility_boxworld(asm, cap=cap)
        meta = {**verdict.meta, "question": "pv", "note": "deterministic tables span the state polytope"}
        return SteeringVerdict(
            verdict.status,
            model=verdict.model,
            certificate=verdict.certificate,
            gap=verdict.gap,
            meta=meta,
            lhs_model=verdict.lhs_model,
        )

    if not isinstance(asm, Assemblage):
        raise InputError("expected an Assemblage or a GptAssemblage")
    if asm.dim_b != 2:
        raise InputError(f"polytope engine needs a qubit on Bob's side, got dim {asm.dim_b}")
    if bob_tests is None:
        raise InputError("the predetermined-value question needs Bob's test family")

    det = deterministic_bloch_set(bob_tests, tol=tol if tol > 1e-12 else 1e-9)
    if det is None:
        verdict = lhs_feasibility_qubit(asm, mesh=mesh, tol=tol, cap=cap)
        return SteeringVerdict(
            verdict.status,
            model=verdict.model,
            certificate=verdict.certificate,
            gap=verdict.gap,
            meta={**verdict.meta, "question": "pv", "note": "no test constrains the hidden states"},
            lhs_model=verdict.lhs_model,
        )

    strategies = enumerate_strategies(asm.settings, asm.outcomes, cap=cap)
    rhs = _assemblage_rhs(asm)
    a_mat = _strategy_vertex_matrix(strategies, asm.settings, asm.outcomes, det)
    verdict = solve_feasibility_float(
        FeasibilityProblem(a=a_mat, b=rhs, num_vars=a_mat.shape[1]), tol=tol
    )
    meta = {
        "question": "pv",
        "deterministic_vertices": int(len(det)),
        "tol": tol,
        "solve": verdict.meta,
    }
    if verdict.status == FEASIBLE:
        model = _model_from_weights(verdict.model, strategies, det)
        dev = model.max_deviation(asm)
        if dev <= MODEL_TOL and abs(model.total_weight() - 1.0) <= MODEL_TOL:
            return SteeringVerdict(
                FEASIBLE, model=verdict.model, lhs_model=model, meta={**meta, "model_deviation": dev}
            )
        return SteeringVerdict(
            UNDECIDED,
            gap=verdict.gap or (0.0, 0.0),
            meta={**meta, "reason": "reconstruction exceeded the model tolerance"},
        )
    if verdict.status == INFEASIBLE:
        return SteeringVerdict(INFEASIBLE, certificate=verdict.certificate, meta=meta)
    return SteeringVerdict(UNDECIDED, gap=verdict.gap, meta=meta)


# ---------------------------------------------------------------------------
# context-free value assignments

def check_value_assignment(effect_groups, assignment, coarse_grainings=None) -> bool:
    """Validate a 0/1 valuation of measurement effects.

    ``assignment[g][k]`` values effect k of group g.  The valuation must
    pick exactly one effect per group, assign equal values to equal
    effects across groups (context independence), and respect additivity
    on any requested coarse-grainings (group index, effect indices,
    claimed value).
    """
    groups = list(effect_groups)
    if len(assignment) != len(groups):
        raise InputError("assignment must cover every effect group")
    values = []
    for g, povm in enumerate(groups):
        row = list(assignment[g])
        if len(row) != povm.num_outcomes:
            raise InputError(f"group {g} has {povm.num_outcomes} effects, got {len(row)} values")
        for v in row:
            if v not in (0, 1):
                raise InputError(f"assignment values must be 0 or 1, got {v!r}")
        values.append(row)

    for g, povm in enumerate(groups):
        if sum(values[g]) != 1:
            return False

    # equal effects must get equal values regardless of the group
    flat = [
        (g, k, povm.effects[k])
        for g, povm in enumerate(groups)
        for k in range(povm.num_outcomes)
    ]
    for i, (g1, k1, e1) in enumerate(flat):
        for g2, k2, e2 in flat[i + 1 :]:
            if e1.shape == e2.shape and np.max(np.abs(e1 - e2)) <= 1e-12:
                if values[g1][k1] != values[g2][k2]:
                    return False

    for g, members, claimed in coarse_grainings or ():
        if claimed not in (0, 1):
            return False
        total = sum(values[g][k] for k in members)
        if total != claimed:
            return False
    return True


# ---------------------------------------------------------------------------
# joint measurability

def joint_measurability(
    povms,
    mesh=DEFAULT_MESH,
    tol: float = DEFAULT_LP_TOL,
    cap: int = ENUMERATION_CAP,
    adapt: bool = True,
) -> SteeringVerdict:
    """Does one parent measurement reproduce all given ones?

    Parent effects are sought as G_lam = sum_v w_(lam,v) * 2 * state(v),
    so nonnegative weights make each G_lam automatically positive; the
    constraints marginalize the parent through the strategies onto each
    target effect and pin sum_lam G_lam to the identity (four redundant
    rows kept deliberately as a consistency anchor).  The inner/outer
    polytope pair yields model / witness / undecided as for steering.
    With ``adapt`` the mesh gains the effects' own Bloch axes, so
    projective parents (needed for commuting pairs) stay representable.
    """
    povms = list(povms)
    if not povms:
        raise InputError("need at least one measurement")
    for p in povms:
        if p.dim != 2:
            raise InputError("joint measurability engine handles qubit effects")
    strategies = enumerate_strategies(len(povms), [p.num_outcomes for p in povms], cap=cap)
    inner, outer = _resolve_mesh(mesh)
    if adapt:
        inner, outer = _augment_mesh(inner, outer, _effect_directions(povms))
    base_meta = {
        "question": "joint-measurability",
        "mesh_size": inner.num_vertices,
        "inflate": outer.scale,
        "tol": tol,
    }

    def build(poly: BlochPolytope):
        bloch = poly.bloch_columns()
        nv = bloch.shape[0]
        counts = [p.num_outcomes for p in povms]
        nrows = 4 * sum(counts) + 4
        a_mat = np.zeros((nrows, len(strategies) * nv))
        comp = np.empty((4, nv))
        comp[0] = 1.0
        comp[1:] = bloch.T
        comp *= 2.0
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for li, strat in enumerate(strategies):
            cols = slice(li * nv, (li + 1) * nv)
            for x in range(len(povms)):
                r = 4 * (offsets[x] + strat.responses[x])
                a_mat[r : r + 4, cols] += comp
            a_mat[nrows - 4 : nrows, cols] += comp
        b = np.empty(nrows)
        for x, povm in enumerate(povms):
            for a, effect in enumerate(povm.effects):
                r = 4 * (offsets[x] + a)
                b[r] = effect.trace().real
                for k, pauli in enumerate(linalg.PAULIS):
                    b[r + 1 + k] = (effect @ pauli).trace().real
        b[nrows - 4] = 2.0
        b[nrows - 3 :] = 0.0
        return a_mat, b

    a_in, b = build(inner)
    v_in = solve_feasibility_float(
        FeasibilityProblem(a=a_in, b=b, num_vars=a_in.shape[1]), tol=tol
    )
    if v_in.status == FEASIBLE:
        parents = _parent_effects(v_in.model, strategies, inner.bloch_columns())
        dev = _parent_deviation(parents, strategies, povms)
        if dev <= MODEL_TOL:
            return SteeringVerdict(
                FEASIBLE,
                model=v_in.model,
                parent_effects=parents,
                meta={**base_meta, "inner": v_in.meta, "model_deviation": dev},
            )
        v_in = v_in.with_meta(reason="parent reconstruction exceeded the model tolerance", deviation=dev)

    a_out, b = build(outer)
    v_out = solve_feasibility_float(
        FeasibilityProblem(a=a_out, b=b, num_vars=a_out.shape[1]), tol=tol
    )
    if v_out.status == INFEASIBLE:
        return SteeringVerdict(
            INFEASIBLE,
            certificate=v_out.certificate,
            meta={**base_meta, "inner": v_in.meta, "outer": v_out.meta},
        )
    gap = (v_in.meta.get("z", float("nan")), v_out.meta.get("z", float("nan")))
    return SteeringVerdict(
        UNDECIDED, gap=gap, meta={**base_meta, "inner": v_in.meta, "outer": v_out.meta}
    )


def _parent_effects(w, strategies, bloch: np.ndarray) -> tuple:
    nv = bloch.shape[0]
    parents = []
    for li in range(len(strategies)):
        chunk = np.asarray(w[li * nv : (li + 1) * nv], dtype=float)
        total = 2.0 * float(chunk.sum())
        vec = 2.0 * (chunk @ bloch)
        parents.append(
            (total * np.eye(2, dtype=complex) + vec[0] * linalg.SIGMA_X + vec[1] * linalg.SIGMA_Y + vec[2] * linalg.SIGMA_Z) / 2.0
        )
    return tuple(parents)


def _parent_deviation(parents, strategies, povms) -> float:
    dev = float(np.max(np.abs(sum(parents) - np.eye(2))))
    for x, povm in enumerate(povms):
        for a, effect in enumerate(povm.effects):
            got = np.zeros((2, 2), dtype=complex)
            for g, strat in zip(parents, strategies):
                if strat.responses[x] == a:
                    got += g
            dev = max(dev, float(np.max(np.abs(got - effect))))
    return dev


# ---------------------------------------------------------------------------
# threshold location

def threshold_scan(family, checker, lo, hi, tol) -> tuple:
    """Bracket a feasibility boundary with two shared-cache bisections.

    The family must be feasible toward ``lo`` and infeasible toward
    ``hi``; a feasible verdict strictly above an infeasible one aborts
    the scan.  Undecided probes narrow the reported bracket instead of
    halting, so the result is (largest parameter certified feasible,
    smallest certified infeasible), either side None if never observed.
    Works for float parameters and exact Fractions alike.
    """
    if not lo < hi:
        raise InputError(f"need lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise InputError(f"bracket width must be positive, got {tol}")  # bisection would never halt
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

    if status_lo == FEASIBLE and status_hi != FEASIBLE:
        a, b = lo, hi
        while b - a > tol:
            mid = (a + b) / 2
            if probe(mid) == FEASIBLE:
                a = mid
            else:
                b = mid
    if status_hi == INFEASIBLE and status_lo != INFEASIBLE:
        a, b = lo, hi
        while b - a > tol:
            mid = (a + b) / 2
            if probe(mid) == INFEASIBLE:
                b = mid
            else:
                a = mid

    p_feasible_max = max(feasible_at) if feasible_at else None
    p_infeasible_min = min(infeasible_at) if infeasible_at else None
    return p_feasible_max, p_infeasible_min
