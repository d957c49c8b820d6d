"""Linear correlation witnesses and their local-model bounds.

A correlator set holds the matched-setting averages <A_x B_x>; the
witness value F = |sum_x <A_x B_x>| / sqrt(m) is at most 1 for any
assemblage with a local hidden state model, so F > 1 certifies steering
from correlators alone.  Witnesses consume correlator sets rather than
assemblages, so quantum and box-world joints share the code; the single
converter below fixes the sign convention outcome a -> eigenvalue (-1)^a.
"""

from __future__ import annotations

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
    """Matched-setting correlators, one value per setting."""

    m: int
    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if self.m != len(values) or self.m < 1:
            raise InputError(f"expected {self.m} correlators, got {len(values)}")
        for x, v in enumerate(values):
            if abs(v) > 1.0 + _VALUE_TOL:
                raise InputError(f"correlator {x} is {v}, outside [-1, 1]")


@dataclass(frozen=True)
class CjwrResult:
    F: float
    violated: bool


def correlators_from_assemblage(asm: Assemblage, bob_obs: Sequence) -> CorrelatorSet:
    """<A_x B_x> = sum_a (-1)^a tr[B_x sigma_(a|x)] per matched setting."""
    if asm.outcomes != 2:
        raise InputError("correlators need binary Alice outcomes mapped to (-1)^a")
    if len(bob_obs) != asm.settings:
        raise InputError(
            f"need one Bob observable per setting: {asm.settings} settings, {len(bob_obs)} observables"
        )
    values = []
    for x, obs in enumerate(bob_obs):
        b = np.asarray(obs, dtype=complex)
        if b.shape != (asm.dim_b, asm.dim_b):
            raise InputError(f"observable {x} has shape {b.shape}, expected {(asm.dim_b, asm.dim_b)}")
        linalg.require_hermitian(b, what=f"observable {x}")
        eigs = np.linalg.eigvalsh(b)
        if np.max(np.abs(np.abs(eigs) - 1.0)) > 1e-9:
            raise InputError(f"observable {x} does not have a +-1 spectrum")
        corr = 0.0
        for a in range(2):
            corr += (-1) ** a * float((b @ asm.block(x, a)).trace().real)
        values.append(corr)
    return CorrelatorSet(m=asm.settings, values=tuple(values))


def s_m(c: CorrelatorSet) -> float:
    """Average matched correlator."""
    return sum(c.values) / c.m


def cjwr(c: CorrelatorSet) -> CjwrResult:
    """F = |sum of correlators| / sqrt(m); F > 1 is unreachable by local
    hidden state models, so ``violated`` certifies steering."""
    f = abs(sum(c.values)) / math.sqrt(c.m)
    return CjwrResult(F=f, violated=f > 1.0)
