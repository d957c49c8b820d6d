"""Problem and verdict containers for the feasibility engine.

A :class:`FeasibilityProblem` is the standard-form question

    does there exist w >= 0 with  A w = b ?

Entries may be floats (or numpy arrays) for the float solver; the exact
solver takes Python ints only.  Verdicts carry either a model (a
witnessing w) or a separating certificate c with ``c . A >= 0``
componentwise and ``c . b < 0``.  The exact solver verifies both by
exact substitution before it returns them; the float solver reports its
final basis, good to roundoff and within ``TOL``, and leaves the check
to its caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Sequence

from ..errors import InputError

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class FeasibilityProblem:
    """Equality-constrained nonnegative feasibility system A w = b, w >= 0.

    ``a`` is a sequence of constraint rows (or a 2D numpy array) and ``b``
    the matching right-hand sides, all Python ints for the exact solver.
    All rows must have length ``num_vars``.
    """

    a: Any
    b: Any
    num_vars: int

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise InputError(f"{len(self.a)} rows but {len(self.b)} right-hand sides")
        for i, row in enumerate(self.a):
            if len(row) != self.num_vars:
                raise InputError(f"row {i} has length {len(row)}, expected {self.num_vars}")


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a feasibility solve.

    status:      one of FEASIBLE / INFEASIBLE / UNDECIDED.
    model:       variable assignment satisfying the constraints (FEASIBLE).
    certificate: dual vector c with c.A >= 0 and c.b < 0 (INFEASIBLE).
    meta:        solver/engine context (mode, pivots, mesh size, ...);
                 float LPs record their phase-one objective as ``z``, and
                 the engine the last master's as ``master["z"]``.
    """

    status: str
    model: Sequence | None = None
    certificate: Sequence | None = None
    meta: dict = field(default_factory=dict)

    @property
    def is_feasible(self) -> bool:
        return self.status == FEASIBLE

    @property
    def is_infeasible(self) -> bool:
        return self.status == INFEASIBLE

    @property
    def is_undecided(self) -> bool:
        return self.status == UNDECIDED

    def with_meta(self, **extra) -> "FeasibilityVerdict":
        merged = dict(self.meta)
        merged.update(extra)
        return replace(self, meta=merged)

    def to_dict(self) -> dict:
        """JSON-safe summary; exact rationals become "num/den" strings."""
        return {
            "status": self.status,
            "model": jsonify(self.model),
            "certificate": jsonify(self.certificate),
            "meta": jsonify(self.meta),
        }


def jsonify(value):
    """``value`` with JSON-native types only: lists, str keys, python scalars;
    exact rationals become "num/den" strings."""
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(value)
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if hasattr(value, "tolist"):
        return jsonify(value.tolist())
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return float(value)


def parse_rational(text: str) -> Fraction:
    """Parse a "num/den" string (or a plain integer string) into a Fraction.

    Plain ASCII "digits/digits" (or digits alone) is read with ``int``;
    every other string, a zero denominator and a digit string past
    ``int``'s digit limit go to ``Fraction``, which accepts the same
    strings and raises for the rest.
    """
    num, slash, den = text.partition("/")
    if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
        try:
            den = int(den) if slash else 1
            if den:
                return Fraction(int(num), den)
        except ValueError:
            pass
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc
