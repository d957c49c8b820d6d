"""Box-world scenarios in exact rational arithmetic.

Bob's states are probability tables over his inputs and outputs, an
assemblage pairs each of Alice's (setting, outcome) contexts with a
weight and such a table, and the induced bipartite joint feeds the CHSH
evaluator.  Everything is a Fraction: the objects live on a polytope and
the interesting questions sit exactly on its facets, where floating
point would blur feasible into infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .lp.problem import parse_rational
from .scenario import NoSignallingReport, positive_int

ONE = Fraction(1)
ZERO = Fraction(0)


def _as_exact(value, what: str = "a box-world probability") -> Fraction:
    """``value`` as a Fraction: a Fraction, an int or a "num/den" string.
    Floats and booleans are not exact rationals and raise InputError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(
        f'{what} must be an exact rational ("num/den" string or integer), '
        f"got {type(value).__name__} {value!r}"
    )


@dataclass(frozen=True, eq=False)
class GptState:
    """Normalized response table: table[(y, b)] = p(b | y)."""

    y_settings: int
    b_outcomes: int
    table: dict

    def __post_init__(self):
        clean = {}
        for y in range(self.y_settings):
            total = ZERO
            for b in range(self.b_outcomes):
                if (y, b) not in self.table:
                    raise InputError(f"state table is missing entry (y={y}, b={b})")
                v = _as_exact(self.table[(y, b)])
                if v < 0 or v > 1:
                    raise InputError(f"p(b={b}|y={y}) = {v} is outside [0, 1]")
                clean[(y, b)] = v
                total += v
            if total != ONE:
                raise InputError(f"input y={y} has total probability {total}, expected 1")
        object.__setattr__(self, "table", clean)

    def prob(self, y: int, b: int) -> Fraction:
        return self.table[(y, b)]


@dataclass(frozen=True, eq=False)
class GptAssemblage:
    """entries[(x, a)] = (weight p(a|x), conditional GptState).

    Valid assemblages have unit weight per setting and a weighted
    marginal table that does not depend on Alice's setting, both exact.
    The constructor compares those tables and keeps what it found in
    ``no_signalling``.
    """

    x_settings: int
    a_outcomes: int
    entries: dict
    no_signalling: NoSignallingReport = field(init=False, repr=False)

    def __post_init__(self):
        positive_int(self.x_settings, "x_settings")
        positive_int(self.a_outcomes, "a_outcomes")
        clean = {}
        ref = None
        for x in range(self.x_settings):
            total = ZERO
            for a in range(self.a_outcomes):
                if (x, a) not in self.entries:
                    raise InputError(f"assemblage is missing entry (x={x}, a={a})")
                weight, state = self.entries[(x, a)]
                weight = _as_exact(weight)
                if weight < 0 or weight > 1:
                    raise InputError(f"p(a={a}|x={x}) = {weight} is outside [0, 1]")
                if not isinstance(state, GptState):
                    raise InputError("assemblage entries must pair a weight with a GptState")
                clean[(x, a)] = (weight, state)
                total += weight
            if total != ONE:
                raise InputError(f"setting x={x} has total weight {total}, expected 1")
        object.__setattr__(self, "entries", clean)
        for x in range(self.x_settings):
            marg = self._marginal(clean, x)
            if ref is None:
                ref = marg
            elif marg != ref:
                raise InputError("weighted marginal table depends on Alice's setting")
        object.__setattr__(self, "no_signalling", NoSignallingReport(passed=True, max_deviation=0.0))

    def _marginal(self, entries, x: int) -> dict:
        first_state = entries[(x, 0)][1]
        marg = {}
        for y in range(first_state.y_settings):
            for b in range(first_state.b_outcomes):
                marg[(y, b)] = sum(
                    entries[(x, a)][0] * entries[(x, a)][1].prob(y, b)
                    for a in range(self.a_outcomes)
                )
        return marg

    def weight(self, x: int, a: int) -> Fraction:
        return self.entries[(x, a)][0]

    def state(self, x: int, a: int) -> GptState:
        return self.entries[(x, a)][1]

    @property
    def y_settings(self) -> int:
        return self.entries[(0, 0)][1].y_settings

    @property
    def b_outcomes(self) -> int:
        return self.entries[(0, 0)][1].b_outcomes


def check_no_signalling_exact(asm: GptAssemblage) -> NoSignallingReport:
    """The exact marginal comparison across settings that ``asm``'s
    constructor made; a signalling family never constructs, so it passes
    with deviation 0."""
    return asm.no_signalling


def prbox_assemblage() -> GptAssemblage:
    """Alice's side of the maximally nonlocal no-signalling box.

    Both outcomes occur with weight 1/2 and Bob's conditional table is
    deterministic: b = a XOR (x AND y).  The weighted marginal is uniform,
    so the family is exactly non-signalling.
    """
    entries = {}
    for x in range(2):
        for a in range(2):
            table = {
                (y, b): (ONE if b == a ^ (x & y) else ZERO) for y in range(2) for b in range(2)
            }
            entries[(x, a)] = (Fraction(1, 2), GptState(2, 2, table))
    return GptAssemblage(x_settings=2, a_outcomes=2, entries=entries)


def uniform_assemblage(x_settings: int = 2, a_outcomes: int = 2,
                       y_settings: int = 2, b_outcomes: int = 2) -> GptAssemblage:
    """White noise: uniform weights and uniform response tables."""
    table = {
        (y, b): Fraction(1, b_outcomes) for y in range(y_settings) for b in range(b_outcomes)
    }
    state = GptState(y_settings, b_outcomes, table)
    entries = {
        (x, a): (Fraction(1, a_outcomes), state)
        for x in range(x_settings)
        for a in range(a_outcomes)
    }
    return GptAssemblage(x_settings=x_settings, a_outcomes=a_outcomes, entries=entries)


def mix_assemblages(lam, first: GptAssemblage, second: GptAssemblage) -> GptAssemblage:
    """Convex mixture lam * first + (1 - lam) * second, exactly.

    Mixing acts on the subnormalized entries weight * table; the mixed
    conditional table is recovered by renormalizing, except for contexts
    of zero mixed weight, which keep the uniform table.
    """
    lam = _as_exact(lam)
    if lam < 0 or lam > 1:
        raise InputError(f"mixing weight must lie in [0, 1], got {lam}")
    if (first.x_settings, first.a_outcomes) != (second.x_settings, second.a_outcomes):
        raise InputError("cannot mix assemblages with different Alice scenarios")
    ny, nb = first.y_settings, first.b_outcomes
    if (ny, nb) != (second.y_settings, second.b_outcomes):
        raise InputError("cannot mix assemblages with different Bob scenarios")
    entries = {}
    for x in range(first.x_settings):
        for a in range(first.a_outcomes):
            w1, s1 = first.entries[(x, a)]
            w2, s2 = second.entries[(x, a)]
            w = lam * w1 + (1 - lam) * w2
            if w == 0:
                table = {(y, b): Fraction(1, nb) for y in range(ny) for b in range(nb)}
            else:
                table = {
                    (y, b): (lam * w1 * s1.prob(y, b) + (1 - lam) * w2 * s2.prob(y, b)) / w
                    for y in range(ny)
                    for b in range(nb)
                }
            entries[(x, a)] = (w, GptState(ny, nb, table))
    return GptAssemblage(first.x_settings, first.a_outcomes, entries)


def joint_from_assemblage(asm: GptAssemblage) -> dict:
    """p(a, b | x, y) = p(a|x) * p(b|y; a, x), keyed (a, b, x, y)."""
    joint = {}
    for x in range(asm.x_settings):
        for a in range(asm.a_outcomes):
            weight, state = asm.entries[(x, a)]
            for y in range(state.y_settings):
                for b in range(state.b_outcomes):
                    joint[(a, b, x, y)] = weight * state.prob(y, b)
    return joint


def _slice_sum(joint: dict, x: int, y: int):
    return sum(v for (a, b, xx, yy), v in joint.items() if xx == x and yy == y)


def chsh_value(joint: dict):
    """E_00 + E_01 + E_10 - E_11 with observables (-1)^a, (-1)^b.

    Works over Fractions (exact) or floats; each (x, y) slice must be
    normalized.  Inputs and outputs beyond the first two settings are
    ignored by construction of the correlators.
    """
    exact = all(isinstance(v, (Fraction, int)) for v in joint.values())
    value = ZERO if exact else 0.0
    for x in range(2):
        for y in range(2):
            total = _slice_sum(joint, x, y)
            if exact:
                if total != 1:
                    raise InputError(f"joint slice (x={x}, y={y}) sums to {total}, expected 1")
            elif abs(total - 1.0) > 1e-9:
                raise InputError(f"joint slice (x={x}, y={y}) sums to {total}, expected 1")
            corr = sum(
                v * (1 if (a + b) % 2 == 0 else -1)
                for (a, b, xx, yy), v in joint.items()
                if xx == x and yy == y
            )
            value = value + (corr if (x, y) != (1, 1) else -corr)
    return value


def quantum_joint(rho_ab, alice, bob) -> dict:
    """Born-rule joint p(a, b | x, y) = tr[(M_{a|x} (x) E_{b|y}) rho]."""
    from . import linalg

    joint = {}
    for x, pa in enumerate(alice):
        for y, pb in enumerate(bob):
            for a, ma in enumerate(pa.effects):
                for b, eb in enumerate(pb.effects):
                    val = (linalg.kron(ma, eb) @ rho_ab).trace().real
                    joint[(a, b, x, y)] = float(val)
    return joint


# ---------------------------------------------------------------------------
# box files: JSON with probabilities as "num/den" strings

def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def box_to_json(asm: GptAssemblage) -> dict:
    ny, nb = asm.y_settings, asm.b_outcomes
    entries = []
    for x in range(asm.x_settings):
        row = []
        for a in range(asm.a_outcomes):
            weight, state = asm.entries[(x, a)]
            table = [[_frac_str(state.prob(y, b)) for b in range(nb)] for y in range(ny)]
            row.append({"weight": _frac_str(weight), "table": table})
        entries.append(row)
    return {
        "x_settings": asm.x_settings,
        "a_outcomes": asm.a_outcomes,
        "y_settings": ny,
        "b_outcomes": nb,
        "entries": entries,
    }


def load_box(doc: dict) -> GptAssemblage:
    """Build a box-world assemblage from a parsed box file.

    ``doc`` holds the counts x_settings, a_outcomes, y_settings and
    b_outcomes, and ``entries[x][a]`` = {"weight": p(a|x), "table":
    p(b|y) as rows over y}, every probability a "num/den" string or an
    integer.  Malformed fields raise InputError; so do floats and
    booleans, which are not exact rationals.
    """
    keys = ("x_settings", "a_outcomes", "y_settings", "b_outcomes", "entries")
    for key in keys:
        if key not in doc:
            raise InputError(f"box file is missing required field {key!r}")
    nx, na, ny, nb = (positive_int(doc[key], f"box file field {key!r}") for key in keys[:4])
    raw = doc["entries"]
    entries = {}
    for x in range(nx):
        for a in range(na):
            try:
                cell = raw[x][a]
                where = f"box entry (x={x}, a={a}) field"
                weight = _as_exact(cell["weight"], f"{where} 'weight'")
                table = {
                    (y, b): _as_exact(cell["table"][y][b], f"{where} 'table[{y}][{b}]'")
                    for y in range(ny)
                    for b in range(nb)
                }
            except (IndexError, KeyError, TypeError) as exc:
                raise InputError(f"box entry (x={x}, a={a}) is malformed") from exc
            entries[(x, a)] = (weight, GptState(ny, nb, table))
    return GptAssemblage(nx, na, entries)
