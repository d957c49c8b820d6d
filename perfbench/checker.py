"""Independent verdict checker.

Every answer is re-checked here against closed forms computed on this
side, never against the program's own re-verification:

- a feasible qubit verdict must ship a model that rebuilds the
  closed-form assemblage (or parent POVM marginals) within MODEL_TOL,
  with weights >= 0 summing to 1 and valid hidden states;
- an infeasible qubit verdict must ship a certificate c that separates
  over the *whole* Bloch ball: with alpha_l and beta_l the trace and
  Pauli parts of c collected along strategy l, every model column has
  value alpha_l + beta_l.n >= s = min_l(alpha_l - |beta_l|) and the model
  weights sum to 1, so c.b < min(0, s) proves that no model exists.
  When every alpha_l >= |beta_l| this is the plain c.b < 0 test;
- a box verdict is re-substituted in Fractions, and no-signalling is
  confirmed on the input;
- every decided verdict is compared with the known answer.

``check`` returns (status, failure), failure None when the answer holds.
Undecided verdicts are not failures; they are counted separately.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from steercert.engine import MODEL_TOL

from workloads import (
    FEASIBLE,
    INFEASIBLE,
    PAULIS,
    UNDECIDED,
    Errored,
    noisy_effects,
    werner_blocks,
)

_STATE_TOL = 1e-9


def check(answer) -> tuple:
    verdict = answer.verdict
    if isinstance(verdict, Errored):
        return "error", f"raised {type(verdict.exc).__name__}: {verdict.exc}"
    if answer.kind == "cjwr":
        return _check_cjwr(answer)
    if answer.kind == "box":
        return _check_box(answer)
    status = verdict.status
    if status == UNDECIDED:
        return status, None
    if status not in (FEASIBLE, INFEASIBLE):
        return status, f"unknown status {status!r}"
    if status != answer.expected:
        return status, f"{status} contradicts the known answer {answer.expected}"
    ctx = answer.context
    if answer.kind == "jm":
        failure = (_check_parent if status == FEASIBLE else _check_jm_certificate)(verdict, ctx)
    elif status == FEASIBLE:
        failure = _check_lhs_model(verdict, ctx)
    else:
        failure = _check_qubit_certificate(verdict, ctx)
    return status, failure


# ---------------------------------------------------------------------------
# qubit models


def _bloch(rho) -> np.ndarray:
    return np.array([float(np.trace(rho @ s).real) for s in PAULIS])


def _is_state(rho) -> bool:
    herm = np.max(np.abs(rho - rho.conj().T)) <= _STATE_TOL
    return bool(
        herm
        and abs(np.trace(rho).real - 1.0) <= _STATE_TOL
        and np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -_STATE_TOL
    )


def _deterministic(tests) -> list:
    """Unit Bloch vectors answering every projective test along ``tests`` with certainty."""
    points = [s * n for n in tests for s in (1.0, -1.0)]
    return [r for r in points if all(abs(abs(r @ t) - 1.0) <= 1e-9 for t in tests)]


def _in_hull(r, points, tol=1e-7) -> bool:
    """Is r in the convex hull of at most two points?"""
    if not points:
        return False
    if len(points) == 1:
        return float(np.linalg.norm(r - points[0])) <= tol
    u, v = points
    d = v - u
    t = float(np.clip((r - u) @ d / (d @ d), 0.0, 1.0))
    return float(np.linalg.norm(r - (u + t * d))) <= tol


def _check_lhs_model(verdict, ctx):
    model = verdict.lhs_model
    if model is None:
        return "feasible verdict without a model"
    weights = np.asarray(model.weights, dtype=float)
    if weights.min(initial=0.0) < 0.0:
        return f"negative model weight {weights.min():.3e}"
    if abs(weights.sum() - 1.0) > MODEL_TOL:
        return f"model weights sum to {weights.sum():.12f}"
    target = werner_blocks(ctx["p"], ctx["axes"])
    tests = ctx.get("tests")
    rebuilt = {key: np.zeros((2, 2), dtype=complex) for key in target}
    for w, rho, strat in zip(weights, model.hidden_states, model.strategies):
        if w == 0.0:
            continue
        if not _is_state(rho):
            return "a hidden state is not a density matrix"
        if tests is not None and not _in_hull(_bloch(rho), _deterministic(tests)):
            return "a hidden state is not a mixture of states deterministic on the tests"
        for x, a in enumerate(strat.responses):
            rebuilt[(x, a)] += w * rho
    dev = max(float(np.max(np.abs(rebuilt[k] - target[k]))) for k in target)
    if dev > MODEL_TOL:
        return f"model rebuilds the assemblage only to {dev:.3e}"
    return None


def _check_parent(verdict, ctx):
    parents = verdict.parent_effects
    if parents is None:
        return "feasible verdict without parent effects"
    m = len(ctx["axes"])
    strategies = list(itertools.product(range(2), repeat=m))
    if len(parents) != len(strategies):
        return f"{len(parents)} parent effects for {len(strategies)} strategies"
    for g in parents:
        g = np.asarray(g)
        if np.max(np.abs(g - g.conj().T)) > _STATE_TOL or np.linalg.eigvalsh((g + g.conj().T) / 2).min() < -_STATE_TOL:
            return "a parent effect is not positive semidefinite"
    dev = float(np.max(np.abs(sum(parents) - np.eye(2))))
    target = noisy_effects(ctx["eta"], ctx["axes"])
    for (x, a), effect in target.items():
        got = sum(g for g, s in zip(parents, strategies) if s[x] == a)
        dev = max(dev, float(np.max(np.abs(got - effect))))
    if dev > MODEL_TOL:
        return f"parent rebuilds the effects only to {dev:.3e}"
    return None


# ---------------------------------------------------------------------------
# qubit certificates


def _rows(block: np.ndarray) -> list:
    """(trace, Pauli components) of a 2x2 block, the engine's row order."""
    return [float(np.trace(block).real)] + list(_bloch(block))


def _alpha_beta(c, m: int, anchor=()) -> list:
    """(alpha_l, beta_l) per strategy l of m binary settings.

    alpha_l and beta_l are the trace and Pauli parts of ``c`` summed over
    the context rows (x, l(x)) and the ``anchor`` rows that every column
    of strategy l fills.
    """
    per_row = c.reshape(-1, 4)
    out = []
    for strat in itertools.product(range(2), repeat=m):
        rows = per_row[[2 * x + a for x, a in enumerate(strat)] + list(anchor)].sum(axis=0)
        out.append((rows[0], rows[1:]))
    return out


def _separates(c, b, alpha_beta, weight_total):
    cb = float(c @ b)
    slack = min(a - float(np.linalg.norm(beta)) for a, beta in alpha_beta) if alpha_beta else math.inf
    bound = min(0.0, weight_total * slack)
    if not cb < bound:
        return f"c.b = {cb:.3e} does not undercut min(0, ball slack) = {bound:.3e}"
    return None


def _check_qubit_certificate(verdict, ctx):
    """LHS (ball) or PV (deterministic states for the tests) separation."""
    if verdict.certificate is None:
        return "infeasible verdict without a certificate"
    c = np.asarray(verdict.certificate, dtype=float)
    blocks = werner_blocks(ctx["p"], ctx["axes"])
    m = len(ctx["axes"])
    b = np.concatenate([_rows(blocks[(x, a)]) for x in range(m) for a in range(2)])
    if c.shape != b.shape:
        return f"certificate has {c.size} entries for {b.size} rows"
    columns = _alpha_beta(c, m)
    tests = ctx.get("tests")
    if tests is not None:
        columns = [
            (alpha + beta @ r, np.zeros(3)) for alpha, beta in columns for r in _deterministic(tests)
        ]
    return _separates(c, b, columns, 1.0)


def _check_jm_certificate(verdict, ctx):
    if verdict.certificate is None:
        return "infeasible verdict without a certificate"
    c = np.asarray(verdict.certificate, dtype=float)
    m = len(ctx["axes"])
    effects = noisy_effects(ctx["eta"], ctx["axes"])
    b = np.concatenate(
        [_rows(effects[(x, a)]) for x in range(m) for a in range(2)] + [[2.0, 0.0, 0.0, 0.0]]
    )
    if c.shape != b.shape:
        return f"certificate has {c.size} entries for {b.size} rows"
    # a parent column 2(1, n) also fills the identity rows, and carries
    # weight 1 toward their total trace 2
    return _separates(c, b, _alpha_beta(c, m, anchor=[2 * m]), 2.0)


# ---------------------------------------------------------------------------
# witnesses


def _check_cjwr(answer):
    ctx = answer.context
    m = len(ctx["axes"])
    want = ctx["p"] * math.sqrt(m)
    result = answer.verdict
    status = INFEASIBLE if result.violated else FEASIBLE
    if abs(result.F - want) > 1e-9:
        return status, f"F = {result.F!r}, closed form {want!r}"
    if status != answer.expected:
        return status, f"witness verdict {status} contradicts the known answer {answer.expected}"
    return status, None


# ---------------------------------------------------------------------------
# box world, exact


def _check_box(answer):
    ctx = answer.context
    if answer.verdict != 0:
        return "error", f"check exited with code {answer.verdict}"
    with open(ctx["report"]) as fh:
        report = json.load(fh)
    entry = report["verdicts"][0]
    status = entry["status"]
    asm = ctx["asm"]
    nx, na, ny, nb = asm.x_settings, asm.a_outcomes, asm.y_settings, asm.b_outcomes
    b = {
        (x, a, y, bb): asm.entries[(x, a)][0] * asm.entries[(x, a)][1].prob(y, bb)
        for x in range(nx)
        for a in range(na)
        for y in range(ny)
        for bb in range(nb)
    }
    marginals = [
        {(y, bb): sum(b[(x, a, y, bb)] for a in range(na)) for y in range(ny) for bb in range(nb)}
        for x in range(nx)
    ]
    if any(mg != marginals[0] for mg in marginals) or not report["details"]["no_signalling"]["passed"]:
        return status, "no-signalling does not hold"
    if status not in (FEASIBLE, INFEASIBLE):
        return status, f"exact mode answered {status!r}"
    if status != answer.expected:
        return status, f"{status} contradicts the known answer {answer.expected}"
    if status == FEASIBLE:
        return status, _box_model_failure(entry["lhs_model"], b, asm)
    return status, _box_certificate_failure(entry["certificate"], b, asm)


def _box_model_failure(model, b, asm):
    weights = [Fraction(w) for w in model["weights"]]
    if any(w < 0 for w in weights) or sum(weights) != 1:
        return "box model weights are not a distribution"
    ny, nb = asm.y_settings, asm.b_outcomes
    rebuilt = dict.fromkeys(b, Fraction(0))
    for w, strat, table in zip(weights, model["strategies"], model["hidden_tables"]):
        probs = {(y, bb): Fraction(table[f"{y},{bb}"]) for y in range(ny) for bb in range(nb)}
        if any(v < 0 for v in probs.values()) or any(
            sum(probs[(y, bb)] for bb in range(nb)) != 1 for y in range(ny)
        ):
            return "a hidden table is not a normalized response table"
        for x, a in enumerate(strat):
            for (y, bb), v in probs.items():
                rebuilt[(x, a, y, bb)] += w * v
    if rebuilt != b:
        return "box model does not re-substitute exactly"
    return None


def _box_certificate_failure(cert, b, asm):
    c = dict(zip(sorted(b), (Fraction(v) for v in cert)))
    if len(cert) != len(b):
        return f"certificate has {len(cert)} entries for {len(b)} rows"
    if sum(c[k] * b[k] for k in b) >= 0:
        return "certificate does not separate (c.b >= 0)"
    nx, na, ny, nb = asm.x_settings, asm.a_outcomes, asm.y_settings, asm.b_outcomes
    for sa in itertools.product(range(na), repeat=nx):
        for sb in itertools.product(range(nb), repeat=ny):
            if sum(c[(x, sa[x], y, sb[y])] for x in range(nx) for y in range(ny)) < 0:
                return "certificate is negative on a deterministic box"
    return None
