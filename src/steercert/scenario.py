"""Quantum scenarios: states, measurements and the assemblages they steer.

An assemblage is the family of subnormalized states left on Bob's side
after Alice measures setting x and reads outcome a.  ``Assemblage``
holds them once, as the read-only array ``blocks`` of shape (settings,
outcomes, dim_b, dim_b), and reads its sizes from that shape, as a
``Povm`` reads its dimension from its effects.  One builder,
``assemblage_from_povms``, forms all blocks in one contraction; a Kraus
instrument enters it through ``povm_from_kraus``.  Each POVM,
assemblage and shared state is validated as one stack (finite, then
Hermitian, then one eigenvalue call for positivity, then normalization
and marginal independence of x from array sums), and an error names the
first offending effect or block; ``load_scenario`` checks a file's
declared dimensions against its arrays.  A scan finds the contexts in
which Bob's conditional state answers some test with certainty.

Conventions fixed here and used everywhere else:
  - qubit measurement outcomes a in {0, 1} map to eigenvalue (-1)^a;
  - conditional states are not materialized when p(a|x) <= 1e-12.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
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
    ``effects`` are read-only views of one validated stack; ``dim`` is
    the side of the square effects, which all have effect 0's shape."""

    label: str
    effects: tuple

    def __post_init__(self):
        effects = [np.asarray(e, dtype=complex) for e in self.effects]
        if not effects:
            raise InputError(f"POVM {self.label!r} has no effects")
        if effects[0].ndim != 2:
            raise InputError(f"POVM {self.label!r} effect 0 has shape {effects[0].shape}, expected a matrix")
        for k, e in enumerate(effects[1:], 1):
            if e.shape != effects[0].shape:
                raise InputError(f"POVM {self.label!r} effect {k} has shape {e.shape}, expected {effects[0].shape}")
        stack = linalg.require_psd(np.stack(effects), lambda k: f"POVM {self.label!r} effect {k}")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[-1]))) > COMPLETENESS_TOL:
            raise InputError(f"POVM {self.label!r} effects do not sum to the identity")
        stack.flags.writeable = False
        object.__setattr__(self, "effects", tuple(stack))

    @property
    def dim(self) -> int:
        return len(self.effects[0])

    @property
    def num_outcomes(self) -> int:
        return len(self.effects)


def povm_from_kraus(label: str, kraus_sets) -> Povm:
    """The measurement of an instrument given by Kraus operators.

    kraus_sets[a] lists the square operators K pooled into outcome a;
    the effects are M_a = sum_K K^dag K, and ``Povm`` checks that they
    are positive and sum to the identity.  The post-measurement update
    K rho K^dag cancels under the partial trace over A, so this POVM
    steers the same assemblage as the instrument.
    """
    effects = []
    for a, ks in enumerate(kraus_sets):
        ops = [linalg.require_square(k, f"POVM {label!r} outcome {a} Kraus operator") for k in ks]
        if len({k.shape for k in ops}) != 1:
            raise InputError(f"POVM {label!r} outcome {a} needs at least one Kraus operator, all of one shape")
        effects.append(sum(linalg.dag(k) @ k for k in ops))
    return Povm(label=label, effects=tuple(effects))


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Subnormalized Bob states sigma_a|x conditioned on Alice's (x, a).

    The constructor copies ``blocks`` into a read-only complex array of
    shape (settings, outcomes, dim_b, dim_b), whose block [x, a] is
    sigma_a|x, and the three sizes are read from that shape.
    Physicality requires each block PSD, unit total trace per setting,
    and a setting-independent marginal sum_a sigma_a|x, whose
    comparison the constructor keeps in ``no_signalling``.
    """

    blocks: np.ndarray
    no_signalling: NoSignallingReport = field(init=False, repr=False)

    def __post_init__(self):
        expected = "(settings, outcomes, dim_b, dim_b), each at least 1"
        try:
            blocks = np.array(self.blocks, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InputError(f"assemblage blocks must be one numeric array of shape {expected}") from exc
        if blocks.ndim != 4 or blocks.shape[2] != blocks.shape[3] or 0 in blocks.shape:
            raise InputError(f"assemblage blocks have shape {blocks.shape}, expected {expected}")
        linalg.require_psd(blocks, lambda x, a: f"assemblage block (x={x}, a={a})")
        totals = np.trace(blocks, axis1=2, axis2=3).real.sum(axis=1)
        for x, total in enumerate(totals.tolist()):
            if abs(total - 1.0) > TRACE_TOL:
                raise InputError(f"setting x={x} has total probability {total}, expected 1")
        marginals = blocks.sum(axis=1)
        dev = float(np.abs(marginals[1:] - marginals[0]).max(initial=0.0))
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "no_signalling", NoSignallingReport(passed=dev <= MARGINAL_TOL, max_deviation=dev))
        if not self.no_signalling.passed:
            raise InputError(f"marginals depend on the setting (max deviation {dev:.3e})")

    @property
    def settings(self) -> int:
        return self.blocks.shape[0]

    @property
    def outcomes(self) -> int:
        return self.blocks.shape[1]

    @property
    def dim_b(self) -> int:
        return self.blocks.shape[2]

    def block(self, x: int, a: int) -> np.ndarray:
        return self.blocks[x, a]

    def prob(self, x: int, a: int) -> float:
        return float(self.blocks[x, a].trace().real)

    def conditional_state(self, x: int, a: int) -> np.ndarray | None:
        """Normalized Bob state for context (x, a); None when p(a|x) ~ 0."""
        p = self.prob(x, a)
        if p <= ZERO_PROB_TOL:
            return None
        return self.blocks[x, a] / p

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


def assemblage_from_povms(rho_ab, alice: Sequence[Povm]) -> Assemblage:
    """sigma_a|x = tr_A[(M_a|x (x) I) rho], every block in one contraction
    over rho reshaped to (dim_a, dim_b, dim_a, dim_b).  dim_a is that of
    Alice's POVMs, and dim_b = len(rho) / dim_a, so rho must be a PSD
    unit-trace matrix whose side dim_a divides."""
    if not alice:
        raise InputError("need at least one Alice measurement")
    dim_a, outcomes = alice[0].dim, alice[0].num_outcomes
    for x, povm in enumerate(alice):
        if povm.dim != dim_a:
            raise InputError(f"Alice measurement {x} acts on dim {povm.dim}, expected {dim_a}")
        if povm.num_outcomes != outcomes:
            raise InputError("all Alice measurements must share one outcome count")
    rho = linalg.require_psd(rho_ab, "shared state")
    dim_b = len(rho) // dim_a
    if rho.shape != (dim_a * dim_b,) * 2:
        raise InputError(f"state has shape {rho.shape}, expected {(dim_a * dim_b,) * 2}")
    if abs(rho.trace().real - 1.0) > TRACE_TOL:
        raise InputError(f"shared state has trace {rho.trace().real}, expected 1")
    effects = np.array([povm.effects for povm in alice])
    return Assemblage(np.einsum("xaij,jbil->xabl", effects, rho.reshape(dim_a, dim_b, dim_a, dim_b)))


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
    return Povm(label=_axis_label(axis), effects=(plus, minus))


def noisy_pauli_povm(axis, eta: float) -> Povm:
    """Smeared projective measurement: effects eta * P_to + (1 - eta)/2 * I."""
    if not 0.0 <= eta <= 1.0:
        raise InputError(f"visibility must lie in [0, 1], got {eta}")
    n = _axis_vector(axis)
    smear = (1.0 - eta) / 2.0 * np.eye(2)
    effects = tuple(eta * linalg.bloch_state(v) + smear for v in (n, -n))
    return Povm(label=f"{_axis_label(axis)}(eta={eta})", effects=effects)


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
    effect matrices.  The state must be (dimA * dimB)-dimensional and
    every POVM act on its side's declared dimension.  Returns a dict with
    keys rho, alice, bob (bob may be an empty list).  Malformed fields
    raise InputError.
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
        if rho.shape != (dim_a * dim_b,) * 2:
            raise InputError(f"state has shape {rho.shape}, expected {(dim_a * dim_b,) * 2} for dimA * dimB")
    else:
        raise InputError(f"unknown state kind {kind!r}")

    def build(who, key, dim):
        raw = doc.get(f"{who}_povms", [])
        if not isinstance(raw, list) or not all(isinstance(e, list) for e in raw):
            raise InputError(f"scenario field '{who}_povms' must be a list of POVMs, each a list of effects")
        povms = []
        for i, effects in enumerate(raw):
            povm = Povm(label=f"{who}[{i}]", effects=tuple(matrix_from_json(e) for e in effects))
            if povm.dim != dim:
                raise InputError(f"POVM {povm.label!r} acts on dimension {povm.dim}, expected {key} = {dim}")
            povms.append(povm)
        return povms

    return {"rho": rho, "alice": build("alice", "dimA", dim_a), "bob": build("bob", "dimB", dim_b)}
