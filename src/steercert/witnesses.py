"""Linear correlation witnesses and their local-model bounds.

A correlator set holds the matched-setting averages <A_x B_x>, one per
setting, with Bob's observable for each, and m is their number; the
witness value is F = |sum_x <A_x B_x>| / sqrt(m).  A local hidden state
model reaches at most L / sqrt(m), where L is the largest eigenvalue of
sum_x s_x B_x over Alice's deterministic answers s = +-1, so F above
that bound certifies steering from correlators alone.  For mutually
orthogonal Bloch axes L = sqrt(m) and the bound is 1 (Cavalcanti,
Jones, Wiseman & Reid, PRA 80, 032112 (2009)); other axes have their
own bound.  Witnesses consume correlator sets rather than assemblages,
so quantum and box-world joints share the code; the single converter
below fixes the sign convention outcome a -> eigenvalue (-1)^a.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import InputError
from .scenario import Assemblage

_VALUE_TOL = 1e-12


@dataclass(frozen=True)
class CorrelatorSet:
    """Matched-setting correlators, one value per setting, and Bob's
    qubit observables B_x = b_x I + r_x . sigma as rows (b_x, r_x), one
    per value, which fix the local bound; ``m`` is the number of
    settings."""

    values: tuple
    observables: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise InputError("a correlator set needs at least one correlator")
        for x, v in enumerate(values):
            if abs(v) > 1.0 + _VALUE_TOL:
                raise InputError(f"correlator {x} is {v}, outside [-1, 1]")
        obs = tuple(tuple(float(v) for v in row) for row in self.observables)
        if len(obs) != self.m or any(len(row) != 4 for row in obs):
            raise InputError(f"expected {self.m} observables as rows (b, rx, ry, rz)")
        object.__setattr__(self, "observables", obs)

    @property
    def m(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CjwrResult:
    """F, and ``bound``, the largest F of a local hidden state model, in
    the same units; ``violated`` when F exceeds it."""

    F: float
    violated: bool
    bound: float


def correlators_from_assemblage(asm: Assemblage, bob_obs: Sequence) -> CorrelatorSet:
    """<A_x B_x> = sum_a (-1)^a tr[B_x sigma_(a|x)] per matched setting,
    with each qubit observable B_x kept as (b_x, r_x)."""
    if asm.outcomes != 2:
        raise InputError("correlators need binary Alice outcomes mapped to (-1)^a")
    if len(bob_obs) != asm.settings:
        raise InputError(
            f"need one Bob observable per setting: {asm.settings} settings, {len(bob_obs)} observables"
        )
    if asm.dim_b != 2:
        raise InputError(f"the witness's local bound needs qubit observables, got Bob dimension {asm.dim_b}")
    obs = [np.asarray(b, dtype=complex) for b in bob_obs]
    for x, b in enumerate(obs):
        if b.shape != (2, 2):
            raise InputError(f"observable {x} has shape {b.shape}, expected (2, 2)")
    obs = linalg.require_hermitian(np.array(obs), lambda x: f"observable {x}")
    off = np.flatnonzero(np.abs(np.abs(np.linalg.eigvalsh(obs)) - 1.0).max(axis=1) > 1e-9)
    if len(off):
        raise InputError(f"observable {off[0]} does not have a +-1 spectrum")
    values = [sum((-1) ** a * float((b @ asm.blocks[x, a]).trace().real) for a in range(2)) for x, b in enumerate(obs)]
    return CorrelatorSet(values=tuple(values), observables=linalg.bloch_components(obs) / 2.0)


def s_m(c: CorrelatorSet) -> float:
    """Average matched correlator."""
    return sum(c.values) / c.m


def cjwr(c: CorrelatorSet) -> CjwrResult:
    """F = |sum of correlators| / sqrt(m) against its local bound.

    A local model gives |sum_x <A_x B_x>| <= L, the largest over signs s
    of sum_x s_x b_x + |sum_x s_x r_x| (the top eigenvalue of
    sum_x s_x B_x), found by trying all 2^m signs; ``bound`` is
    L / sqrt(m).
    ``violated`` (F above the bound, which certifies steering) is decided
    exactly on the float64 values as stored: all of them are scaled to
    integers over one power of two, and |C| > L holds when, for every s,
    D_s = |C| - sum_x s_x b_x is positive and D_s^2 > |sum_x s_x r_x|^2.
    """
    m = c.m
    f = abs(sum(c.values)) / math.sqrt(m)
    obs = np.array(c.observables)
    signs = np.array(list(itertools.product((1, -1), repeat=m)))
    local = signs @ obs[:, 0] + np.linalg.norm(signs @ obs[:, 1:], axis=1)
    ints, _ = linalg.scaled_ints([*c.values, *obs.ravel().tolist()])
    sums = signs.astype(object) @ np.array(ints[m:], dtype=object).reshape(m, 4)
    gap = abs(sum(ints[:m])) - sums[:, 0]
    radius = (sums[:, 1:] ** 2).sum(axis=1)
    violated = all(g > 0 and g * g > r for g, r in zip(gap.tolist(), radius.tolist()))
    return CjwrResult(F=f, violated=violated, bound=float(local.max()) / math.sqrt(m))
