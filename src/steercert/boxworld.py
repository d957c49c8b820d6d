"""Box-world scenarios in exact rational arithmetic.

Bob's states are probability tables over his inputs and outputs, an
assemblage pairs each of Alice's (setting, outcome) contexts with a
weight and such a table, and the induced bipartite joint feeds the CHSH
evaluator.  Nothing is rounded: the objects live on a polytope and the
interesting questions sit exactly on its facets, where floating point
would blur feasible into infeasible.  Weights and tables are Fractions
as given, and an assemblage holds its subnormalised entries once, as
integer counts over one common denominator, so validation, the
no-signalling check and the engine's LP all run on Python ints.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import InputError
from .lp.problem import jsonify, parse_rational
from .scenario import NoSignallingReport, positive_int

ONE = Fraction(1)
ZERO = Fraction(0)

# every assemblage that constructs passed the exact marginal comparison
_NO_SIGNALLING = NoSignallingReport(passed=True, max_deviation=0.0)


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


def _outside_unit(v: Fraction) -> bool:
    """Whether v lies outside [0, 1]; denominators are positive."""
    return v.numerator < 0 or v.numerator > v.denominator


def _sums_to_one(values) -> bool:
    """Whether the Fractions ``values`` sum to exactly 1: written as ints
    over their least common denominator d, they must sum to d."""
    ints, d = linalg.scaled_ints(values)
    return sum(ints) == d


@functools.cache
def _box_keys(x_settings: int, a_outcomes: int, y_settings: int, b_outcomes: int) -> tuple:
    """The keys (x, a, y, b) of one box shape in lexicographic order, one
    tuple per shape shared by every assemblage of that shape."""
    return tuple(itertools.product(range(x_settings), range(a_outcomes), range(y_settings), range(b_outcomes)))


@dataclass(frozen=True, eq=False)
class GptState:
    """Normalized response table: table[(y, b)] = p(b | y)."""

    y_settings: int
    b_outcomes: int
    table: dict

    def __post_init__(self):
        clean = {}
        for y in range(self.y_settings):
            row = []
            for b in range(self.b_outcomes):
                if (y, b) not in self.table:
                    raise InputError(f"state table is missing entry (y={y}, b={b})")
                v = _as_exact(self.table[(y, b)])
                if _outside_unit(v):
                    raise InputError(f"p(b={b}|y={y}) = {v} is outside [0, 1]")
                clean[(y, b)] = v
                row.append(v)
            if not _sums_to_one(row):
                raise InputError(f"input y={y} has total probability {sum(row)}, expected 1")
        object.__setattr__(self, "table", clean)

    def prob(self, y: int, b: int) -> Fraction:
        return self.table[(y, b)]


@dataclass(frozen=True, eq=False)
class GptAssemblage:
    """entries[(x, a)] = (weight p(a|x), conditional GptState).

    Every state has the same Bob inputs and outputs.  The constructor
    forms the subnormalised entries p(a|x) p(b|y; x, a) once, as integer
    ``counts`` over one common denominator ``den`` (the least one), in
    the lexicographic order of ``_box_keys``; ``table`` reads them back as
    Fractions.  Valid assemblages have unit weight per setting and a
    weighted marginal sum_a counts[x, a, y, b] that does not depend on x,
    both checked in integers; what the constructor found is kept in
    ``no_signalling``.
    """

    x_settings: int
    a_outcomes: int
    entries: dict
    den: int = field(init=False, repr=False)
    counts: tuple = field(init=False, repr=False)
    no_signalling: NoSignallingReport = field(init=False, repr=False)

    def __post_init__(self):
        positive_int(self.x_settings, "x_settings")
        positive_int(self.a_outcomes, "a_outcomes")
        clean = {}
        shape = None
        for x in range(self.x_settings):
            weights = []
            for a in range(self.a_outcomes):
                if (x, a) not in self.entries:
                    raise InputError(f"assemblage is missing entry (x={x}, a={a})")
                weight, state = self.entries[(x, a)]
                weight = _as_exact(weight)
                if _outside_unit(weight):
                    raise InputError(f"p(a={a}|x={x}) = {weight} is outside [0, 1]")
                if not isinstance(state, GptState):
                    raise InputError("assemblage entries must pair a weight with a GptState")
                dims = (state.y_settings, state.b_outcomes)
                shape = shape or dims
                if dims != shape:
                    what = f"{dims[0]}x{dims[1]} Bob inputs x outcomes, not {shape[0]}x{shape[1]}"
                    raise InputError(f"entry (x={x}, a={a}) has {what}")
                clean[(x, a)] = (weight, state)
                weights.append(weight)
            if not _sums_to_one(weights):
                raise InputError(f"setting x={x} has total weight {sum(weights)}, expected 1")
        counts, den = linalg.scaled_ints([w * p for w, state in clean.values() for p in state.table.values()])
        width = shape[0] * shape[1]
        block = self.a_outcomes * width

        def marginal(x):
            return [sum(counts[x * block + i:(x + 1) * block:width]) for i in range(width)]

        first = marginal(0)
        if any(marginal(x) != first for x in range(1, self.x_settings)):
            raise InputError("weighted marginal table depends on Alice's setting")
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "counts", tuple(counts))
        object.__setattr__(self, "no_signalling", _NO_SIGNALLING)

    @property
    def shape(self) -> tuple:
        """(x_settings, a_outcomes, y_settings, b_outcomes)."""
        return self.x_settings, self.a_outcomes, self.y_settings, self.b_outcomes

    @property
    def table(self) -> dict:
        """{(x, a, y, b): p(a|x) p(b|y; x, a)} in lexicographic order: the
        counts over ``den`` as Fractions, formed afresh on every read."""
        den = self.den
        return {key: Fraction(c, den) for key, c in zip(_box_keys(*self.shape), self.counts)}

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
    table1, table2 = first.table, second.table
    entries = {}
    for (x, a), (w1, _) in first.entries.items():
        w = lam * w1 + (1 - lam) * second.weight(x, a)
        if w == 0:
            table = {(y, b): Fraction(1, nb) for y in range(ny) for b in range(nb)}
        else:
            table = {
                (y, b): (lam * table1[x, a, y, b] + (1 - lam) * table2[x, a, y, b]) / w
                for y in range(ny)
                for b in range(nb)
            }
        entries[(x, a)] = (w, GptState(ny, nb, table))
    return GptAssemblage(first.x_settings, first.a_outcomes, entries)


def joint_from_assemblage(asm: GptAssemblage) -> dict:
    """p(a, b | x, y) = p(a|x) p(b|y; x, a), keyed (a, b, x, y): the
    assemblage's ``table`` re-keyed."""
    return {(a, b, x, y): v for (x, a, y, b), v in asm.table.items()}


def chsh_value(joint: dict) -> Fraction:
    """E_00 + E_01 + E_10 - E_11 with observables (-1)^a, (-1)^b.

    Exact only: every entry must be a Fraction or an int, else
    InputError, and each (x, y) slice must sum to exactly 1.  The entries
    are summed as integers over their common denominator, and one
    Fraction is formed at the end.  Inputs and outputs beyond the first
    two settings are ignored by construction of the correlators.
    """
    for k, v in joint.items():
        if not isinstance(v, (Fraction, int)):
            raise InputError(f"joint entry {k} must be an exact rational, got {type(v).__name__} {v!r}")
    ints, one = linalg.scaled_ints(list(joint.values()))
    total = dict.fromkeys(itertools.product(range(2), repeat=2), 0)
    corr = dict(total)
    for (a, b, x, y), n in zip(joint, ints):
        if (x, y) in total:
            total[x, y] += n
            corr[x, y] += n if (a + b) % 2 == 0 else -n
    for (x, y), t in total.items():
        if t != one:
            raise InputError(f"joint slice (x={x}, y={y}) sums to {Fraction(t, one)}, expected 1")
    value = corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1]
    return Fraction(value, one)


# ---------------------------------------------------------------------------
# box files: JSON with probabilities as "num/den" strings

def box_to_json(asm: GptAssemblage) -> dict:
    """The box file of ``asm`` that ``load_box`` reads back."""
    nx, na, ny, nb = asm.shape
    entries = [[asm.entries[(x, a)] for a in range(na)] for x in range(nx)]
    return jsonify({
        "x_settings": nx,
        "a_outcomes": na,
        "y_settings": ny,
        "b_outcomes": nb,
        "entries": [
            [{"weight": w, "table": [[s.prob(y, b) for b in range(nb)] for y in range(ny)]} for w, s in row]
            for row in entries
        ],
    })


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
