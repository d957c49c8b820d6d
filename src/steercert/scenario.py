"""Quantum scenarios: states, measurements and the assemblages they steer.

An assemblage is the family of subnormalized states left on Bob's side
after Alice measures setting x and reads outcome a.  ``Assemblage``
holds them once, as the read-only array ``blocks`` of shape (settings,
outcomes, dim_b, dim_b), which ``sigma`` and every accessor read.  One
builder, ``assemblage_from_povms``, forms all blocks in one contraction;
a Kraus instrument goes through it on its induced effects.  Each POVM,
assemblage and shared state is validated as one stack (finite, then
Hermitian, then one eigenvalue call for positivity, then normalization
and marginal independence of x from array sums), and an error names the
first offending effect or block.  A scan finds the contexts in which
Bob's conditional state answers some test with certainty.

Conventions fixed here and used everywhere else:
  - qubit measurement outcomes a in {0, 1} map to eigenvalue (-1)^a;
  - conditional states are not materialized when p(a|x) <= 1e-12.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InputError

TRACE_TOL = 1e-9
MARGINAL_TOL = 1e-9
COMPLETENESS_TOL = 1e-10
ZERO_PROB_TOL = 1e-12
CERTAINTY_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Povm:
    """A finite-outcome measurement: PSD effects summing to the identity.
    ``effects`` are read-only views of one validated stack."""

    label: str
    effects: tuple
    dim: int

    def __post_init__(self):
        dim = positive_int(self.dim, f"POVM {self.label!r} dimension")
        effects = [np.asarray(e, dtype=complex) for e in self.effects]
        if not effects:
            raise InputError(f"POVM {self.label!r} has no effects")
        for k, e in enumerate(effects):
            if e.shape != (dim, dim):
                raise InputError(f"POVM {self.label!r} effect {k} has shape {e.shape}, expected {(dim, dim)}")
        stack = linalg.require_psd(np.stack(effects), lambda k: f"POVM {self.label!r} effect {k}")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(dim))) > COMPLETENESS_TOL:
            raise InputError(f"POVM {self.label!r} effects do not sum to the identity")
        stack.flags.writeable = False
        object.__setattr__(self, "effects", tuple(stack))

    @property
    def num_outcomes(self) -> int:
        return len(self.effects)


@dataclass(frozen=True, eq=False)
class Instrument:
    """A measurement given by Kraus operators, grouped by outcome.

    kraus_sets[a] lists the operators pooled into outcome a; jointly they
    must satisfy the completeness relation sum K^dag K = identity.
    """

    label: str
    kraus_sets: tuple
    dim: int

    def __post_init__(self):
        dim = positive_int(self.dim, f"instrument {self.label!r} dimension")
        sets = tuple(
            tuple(linalg.require_square(k, f"instrument {self.label!r} outcome {a} operator") for k in ks)
            for a, ks in enumerate(self.kraus_sets)
        )
        object.__setattr__(self, "kraus_sets", sets)
        for a, ks in enumerate(sets):
            for k in ks:
                if k.shape[1] != dim:
                    raise InputError(
                        f"instrument {self.label!r} outcome {a}: operator acts on dim {k.shape[1]}, expected {dim}"
                    )
        if np.max(np.abs(sum(self.effects()) - np.eye(dim))) > COMPLETENESS_TOL:
            raise InputError(f"instrument {self.label!r} Kraus operators are not complete")

    @property
    def num_outcomes(self) -> int:
        return len(self.kraus_sets)

    def effects(self) -> tuple:
        """The induced POVM effects M_a = sum_mu K^dag K."""
        zero = np.zeros((self.dim, self.dim), dtype=complex)
        return tuple(sum((linalg.dag(k) @ k for k in ks), zero) for ks in self.kraus_sets)


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Subnormalized Bob states sigma[(x, a)] conditioned on Alice's (x, a).

    The constructor copies the blocks into ``blocks``, a read-only array
    of shape (settings, outcomes, dim_b, dim_b), and ``sigma`` becomes a
    read-only mapping of views into it.  Physicality requires each block
    PSD, unit total trace per setting, and a setting-independent marginal
    sum_a sigma[(x, a)], whose comparison the constructor keeps in
    ``no_signalling``.
    """

    settings: int
    outcomes: int
    dim_b: int
    sigma: dict
    blocks: np.ndarray = field(init=False, repr=False)
    no_signalling: NoSignallingReport = field(init=False, repr=False)

    def __post_init__(self):
        names = ("settings", "outcomes", "dim_b")
        settings, outcomes, dim_b = (positive_int(getattr(self, k), f"assemblage {k}") for k in names)
        blocks = np.empty((settings, outcomes, dim_b, dim_b), dtype=complex)
        for x in range(settings):
            for a in range(outcomes):
                if (x, a) not in self.sigma:
                    raise InputError(f"assemblage is missing block (x={x}, a={a})")
                s = np.asarray(self.sigma[(x, a)], dtype=complex)
                if s.shape != (dim_b, dim_b):
                    raise InputError(f"block (x={x}, a={a}) has shape {s.shape}")
                blocks[x, a] = s
        linalg.require_psd(blocks, lambda x, a: f"assemblage block (x={x}, a={a})")
        totals = np.trace(blocks, axis1=2, axis2=3).real.sum(axis=1)
        for x, total in enumerate(totals.tolist()):
            if abs(total - 1.0) > TRACE_TOL:
                raise InputError(f"setting x={x} has total probability {total}, expected 1")
        marginals = blocks.sum(axis=1)
        dev = float(np.abs(marginals[1:] - marginals[0]).max(initial=0.0))
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        views = {(x, a): blocks[x, a] for x in range(settings) for a in range(outcomes)}
        object.__setattr__(self, "sigma", MappingProxyType(views))
        object.__setattr__(self, "no_signalling", NoSignallingReport(passed=dev <= MARGINAL_TOL, max_deviation=dev))
        if not self.no_signalling.passed:
            raise InputError(f"marginals depend on the setting (max deviation {dev:.3e})")

    def block(self, x: int, a: int) -> np.ndarray:
        return self.sigma[(x, a)]

    def prob(self, x: int, a: int) -> float:
        return float(self.sigma[(x, a)].trace().real)

    def conditional_state(self, x: int, a: int) -> np.ndarray | None:
        """Normalized Bob state for context (x, a); None when p(a|x) ~ 0."""
        p = self.prob(x, a)
        if p <= ZERO_PROB_TOL:
            return None
        return self.sigma[(x, a)] / p

    def marginal(self, x: int = 0) -> np.ndarray:
        return self.blocks[x].sum(axis=0)


@dataclass(frozen=True)
class NoSignallingReport:
    passed: bool
    max_deviation: float


@dataclass(frozen=True)
class PredictabilityRecord:
    """A context (x, a) whose conditional state answers test (y, b) with
    probability at least 1 - CERTAINTY_EPS."""

    context: tuple
    test: tuple
    probability: float


def check_no_signalling(asm: Assemblage) -> NoSignallingReport:
    """The outcome-summed marginals compared across settings by ``asm``'s
    constructor; within MARGINAL_TOL passes, and a failing family never
    constructs."""
    return asm.no_signalling


def _require_state(rho_ab, dim_a: int, dim_b: int | None) -> np.ndarray:
    """The shared state, checked; ``dim_b`` None takes it from the shape."""
    rho = linalg.require_psd(rho_ab, "shared state")
    dim = dim_a * (len(rho) // dim_a if dim_b is None else dim_b)
    if rho.shape != (dim, dim):
        raise InputError(f"state has shape {rho.shape}, expected {(dim, dim)}")
    if abs(rho.trace().real - 1.0) > TRACE_TOL:
        raise InputError(f"shared state has trace {rho.trace().real}, expected 1")
    return rho


def assemblage_from_povms(rho_ab, alice: Sequence[Povm], dim_b: int | None = None) -> Assemblage:
    """sigma[(x, a)] = tr_A[(M_{a|x} (x) I) rho], every block in one
    contraction over rho reshaped to (dim_a, dim_b, dim_a, dim_b)."""
    if not alice:
        raise InputError("need at least one Alice measurement")
    dim_a, outcomes = alice[0].dim, alice[0].num_outcomes
    for x, povm in enumerate(alice):
        if povm.dim != dim_a:
            raise InputError(f"Alice measurement {x} acts on dim {povm.dim}, expected {dim_a}")
        if povm.num_outcomes != outcomes:
            raise InputError("all Alice measurements must share one outcome count")
    rho = _require_state(rho_ab, dim_a, dim_b)
    dim_b = rho.shape[0] // dim_a
    effects = np.array([povm.effects for povm in alice])
    blocks = np.einsum("xaij,jbil->xabl", effects, rho.reshape(dim_a, dim_b, dim_a, dim_b))
    sigma = {(x, a): blocks[x, a] for x in range(len(alice)) for a in range(outcomes)}
    return Assemblage(settings=len(alice), outcomes=outcomes, dim_b=dim_b, sigma=sigma)


def assemblage_from_instrument(
    rho_ab, alice: Sequence[Instrument], dim_b: int | None = None
) -> Assemblage:
    """sigma[(x, a)] = sum_mu tr_A[(K (x) I) rho (K^dag (x) I)], which is
    ``assemblage_from_povms`` on the induced effects: the update
    operators cancel under the partial trace over A."""
    povms = [Povm(label=inst.label, effects=inst.effects(), dim=inst.dim) for inst in alice]
    return assemblage_from_povms(rho_ab, povms, dim_b)


def scan_predictability(asm: Assemblage, bob: Sequence[Povm]) -> list:
    """All (context, test) pairs where Bob's conditional state is certain.

    Contexts with p(a|x) ~ 0 have no conditional state and are skipped.
    """
    records = []
    for x in range(asm.settings):
        for a in range(asm.outcomes):
            omega = asm.conditional_state(x, a)
            if omega is None:
                continue
            for y, povm in enumerate(bob):
                if povm.dim != asm.dim_b:
                    raise InputError(f"Bob measurement {y} acts on dim {povm.dim}, expected {asm.dim_b}")
                for b, effect in enumerate(povm.effects):
                    prob = float((effect @ omega).trace().real)
                    if prob >= 1.0 - CERTAINTY_EPS:
                        records.append(
                            PredictabilityRecord(context=(x, a), test=(y, b), probability=prob)
                        )
    return records


# ---------------------------------------------------------------------------
# standard two-qubit states and measurements

def singlet() -> np.ndarray:
    """(|01> - |10>)/sqrt(2) as a density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1 / np.sqrt(2)
    psi[2] = -1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def werner_state(p: float) -> np.ndarray:
    """p * singlet + (1 - p) * maximally mixed."""
    if not 0.0 <= p <= 1.0:
        raise InputError(f"mixing weight must lie in [0, 1], got {p}")
    return p * singlet() + (1.0 - p) * np.eye(4) / 4.0


def pauli_povm(axis) -> Povm:
    """Projective qubit measurement along a Bloch axis.

    Outcome 0 is the +1 eigenspace, outcome 1 the -1 eigenspace, so that
    outcome a carries eigenvalue (-1)^a.
    """
    n = _axis_vector(axis)
    plus = linalg.bloch_state(n)
    minus = linalg.bloch_state(-n)
    return Povm(label=_axis_label(axis), effects=(plus, minus), dim=2)


def noisy_pauli_povm(axis, eta: float) -> Povm:
    """Smeared projective measurement: effects eta * P_to + (1 - eta)/2 * I."""
    if not 0.0 <= eta <= 1.0:
        raise InputError(f"visibility must lie in [0, 1], got {eta}")
    n = _axis_vector(axis)
    smear = (1.0 - eta) / 2.0 * np.eye(2)
    effects = tuple(eta * linalg.bloch_state(v) + smear for v in (n, -n))
    return Povm(label=f"{_axis_label(axis)}(eta={eta})", effects=effects, dim=2)


def pauli_observable(axis) -> np.ndarray:
    """The traceless +-1 observable n . sigma for a Bloch axis."""
    n = _axis_vector(axis)
    return n[0] * linalg.SIGMA_X + n[1] * linalg.SIGMA_Y + n[2] * linalg.SIGMA_Z


def _axis_vector(axis) -> np.ndarray:
    if isinstance(axis, str):
        try:
            return {
                "x": np.array([1.0, 0.0, 0.0]),
                "y": np.array([0.0, 1.0, 0.0]),
                "z": np.array([0.0, 0.0, 1.0]),
            }[axis.lower()]
        except KeyError:
            raise InputError(f"unknown axis {axis!r}, expected 'x', 'y' or 'z'") from None
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise InputError(f"axis must be a 3-vector, got shape {n.shape}")
    norm = float(np.linalg.norm(n))
    if norm < 1e-12:
        raise InputError("axis vector has zero length")
    return n / norm


def _axis_label(axis) -> str:
    if isinstance(axis, str):
        return axis.lower()
    return "axis(" + ",".join(f"{v:.3g}" for v in np.asarray(axis, dtype=float)) + ")"


# ---------------------------------------------------------------------------
# scenario files: JSON with complex entries as [re, im] pairs

def matrix_to_json(m) -> list:
    arr = linalg.require_square(m)
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def matrix_from_json(rows) -> np.ndarray:
    try:
        arr = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows], dtype=complex
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise InputError("matrix entries must be [re, im] pairs in rows of equal length") from exc
    return linalg.require_square(arr)


def positive_int(value, what: str) -> int:
    """``value`` if it is an integer of at least 1, else InputError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def load_scenario(doc: dict) -> dict:
    """Build state and measurement objects from a parsed scenario file.

    ``doc`` holds the fields {dimA, dimB, state, alice_povms, bob_povms?};
    ``state`` is {"kind": "werner", "p": p}, {"kind": "singlet"} or
    {"kind": "explicit", "matrix": rows}, and each POVM is a list of
    effect matrices.  Returns a dict with keys rho, alice, bob (bob may
    be an empty list), dims.  Malformed fields raise InputError.
    """
    for key in ("dimA", "dimB", "state", "alice_povms"):
        if key not in doc:
            raise InputError(f"scenario is missing required field {key!r}")
    dim_a, dim_b = (positive_int(doc[key], f"scenario field {key!r}") for key in ("dimA", "dimB"))
    state = doc["state"]
    if not isinstance(state, dict):
        raise InputError(f"scenario field 'state' must be an object with a 'kind', got {state!r}")

    kind = state.get("kind")
    if kind == "werner":
        if (dim_a, dim_b) != (2, 2):
            raise InputError("werner scenarios are two-qubit")
        try:
            p = float(state["p"])
        except (KeyError, TypeError, ValueError):
            raise InputError(f"werner state needs a numeric weight 'p', got {state.get('p')!r}") from None
        rho = werner_state(p)
    elif kind == "singlet":
        if (dim_a, dim_b) != (2, 2):
            raise InputError("singlet scenarios are two-qubit")
        rho = singlet()
    elif kind == "explicit":
        if "matrix" not in state:
            raise InputError("explicit state needs a 'matrix'")
        rho = matrix_from_json(state["matrix"])
    else:
        raise InputError(f"unknown state kind {kind!r}")

    def build(who, dim):
        raw = doc.get(f"{who}_povms", [])
        if not isinstance(raw, list) or not all(isinstance(e, list) for e in raw):
            raise InputError(f"scenario field '{who}_povms' must be a list of POVMs, each a list of effects")
        return [
            Povm(label=f"{who}[{i}]", effects=tuple(matrix_from_json(e) for e in effects), dim=dim)
            for i, effects in enumerate(raw)
        ]

    alice = build("alice", dim_a)
    bob = build("bob", dim_b)
    return {"rho": rho, "alice": alice, "bob": bob, "dims": (dim_a, dim_b)}
