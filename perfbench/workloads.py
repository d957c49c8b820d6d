"""Seeded workloads with known answers.

Each workload builds a fixed job list from seeded generators (random
orthonormal frames, stratified Werner weights, rational PR-box mixtures,
random local boxes) and knows, for every request in it, the answer a
correct program must give.  The program only ever sees the generated
inputs (assemblages, POVMs, box files); frames and known answers stay on
this side.

The instances are drawn once, from POOL_SEED; ``--seed`` sets the order
in which they are sent.  On the pure-python kernel one random instance
costs two to five times another (Bland's pivot path changes with the
frame and the weight) and a 30 s run holds only a few dozen requests, so
drawing the instances per seed moved job_s by 14% and request_ms.p50 by
33% (IQR over median, 8 seeds), more than any bound allows.  With a
fixed pool the spread is the machine's own.

Why each workload exists:

werner-bracket
    Gate criterion 1 as ``steercert werner-scan --settings 2 --mesh 642``
    runs it (``threshold_scan`` over [0, 1] with ``lhs_feasibility_qubit``
    at bracket_tol 0.01), followed by the m=3 singlet probe at mesh 642
    with which criterion 2's bracket opens, both in the canonical frames
    the CLI uses.  These are the long, large LPs (16x2584 and 24x5184)
    where float LP time is everything.  The full m=3 bracket (70-80 s on
    the pure-python kernel) does not fit in one run, so only its opening
    infeasible probe is kept: in the canonical x/y/z frame that probe is
    the known ``singular basis`` stall, and the benchmark shows it.
qubit-verdicts
    A stream of random qubit scenarios at the default mesh 162, each
    answered on LHS, PV, joint measurability and the CJWR witness: many
    small LPs, where per-call costs (mesh, hull, matrix build, model
    rebuild) take their largest share.
box-exact
    ``steercert check`` on box-world files in exact mode: the only
    workload on ``lp.exact``, ``boxworld`` and report writing.  It never
    touches ``lp.float`` or ``polytope``.  The uniform 4-2-4-2 box (one
    9-13 s exact LP) is left out: a run held one or two samples of it and
    job_s spread by 0.25 over 10 seeds; uniform 3-3-2-2 is the largest.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np
from scipy.spatial.transform import Rotation

from steercert import boxworld, cli, engine, scenario, witnesses
from steercert.errors import SteercertError

WERNER_MESH = 642
WERNER_BRACKET_TOL = 0.01
STREAM_MESH = 162
# scenarios per pass by number of settings: two m=2 per m=3, so the
# median request is a small-LP (m=2) scenario rather than the boundary
# between the two cost clusters
STREAM_SCENARIOS = {2: 6, 3: 3}
PR_MIXTURES = 47
LIFTED_MIXTURES = 4
LOCAL_BOXES = 4
POOL_SEED = 0

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"

_CANONICAL = {2: np.eye(3)[[0, 2]], 3: np.eye(3)}


def frame(m: int, rng=None) -> np.ndarray:
    """m orthonormal Bloch axes, one per row.

    Without ``rng`` this is the canonical frame (x/z for m=2, x/y/z for
    m=3); with one, the canonical frame turned by a uniformly random
    rotation, which leaves every Werner threshold at 1/sqrt(m).
    """
    axes = _CANONICAL[m]
    if rng is None:
        return axes.copy()
    return axes @ Rotation.random(random_state=rng).as_matrix().T


def werner_assemblage(p: float, axes: np.ndarray):
    """Werner state of weight p, Alice measuring projectively along ``axes``."""
    povms = [scenario.pauli_povm(n) for n in axes]
    return scenario.assemblage_from_povms(scenario.werner_state(float(p)), povms)


PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _dot_sigma(n) -> np.ndarray:
    return sum(n[k] * PAULIS[k] for k in range(3))


def werner_blocks(p: float, axes: np.ndarray) -> dict:
    """Closed form of ``werner_assemblage``: sigma_(a|x) = (I - (-1)^a p n_x.sigma) / 4."""
    return {
        (x, a): (np.eye(2) - (-1) ** a * p * _dot_sigma(n)) / 4.0
        for x, n in enumerate(axes)
        for a in range(2)
    }


def noisy_effects(eta: float, axes: np.ndarray) -> dict:
    """Closed form of noisy projective effects: (I + (-1)^a eta n_x.sigma) / 2."""
    return {
        (x, a): (np.eye(2) + (-1) ** a * eta * _dot_sigma(n)) / 2.0
        for x, n in enumerate(axes)
        for a in range(2)
    }


def lhs_threshold(m: int) -> float:
    """Werner weight below which m orthonormal projective settings admit an LHS model."""
    return 1.0 / math.sqrt(m)


# ---------------------------------------------------------------------------
# requests: one unit of closed-loop work plus the answer it must give


class Errored:
    """Stand-in verdict for a request that raised."""

    status = "error"

    def __init__(self, exc: BaseException):
        self.exc = exc


@dataclass
class Answer:
    """What one request returned, for the checker."""

    kind: str  # lhs / pv / jm / cjwr / box / error
    verdict: object = None
    expected: str | None = None  # FEASIBLE / INFEASIBLE
    context: dict | None = None


class Workload:
    """A fixed job list, split into units that a run can repeat.

    A unit is a callable that sends one or more requests through the
    clock; its requests are the same work, in the same order, every time
    it runs.  ``once`` holds units too long to repeat in a run: a run
    makes them once, before the repeats.  A pass runs every unit once.
    """

    units: list
    once: tuple = ()

    def run_pass(self, clock):
        for unit in (*self.once, *self.units):
            unit(clock)


def _stratified(rng, n: int) -> np.ndarray:
    """n draws from U[0, 1], one from each of n equal strata, shuffled."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


@dataclass
class WernerBracket(Workload):
    """Criterion-1 bracket plus criterion-2's opening probe, canonical frames.

    The job list does not depend on the seed: a bisection fixes its own
    probe order.  At mesh 642 one random frame moved the pass time by a
    factor of two (11-26 s over five seeds) and a run has room for about
    one pass, so the frames are the CLI's; random frames are exercised
    by qubit-verdicts.

    The bracket (nine probes of 0.2-2 s, 11-16 s in all) is repeated
    while it fits in the run, so each probe is taken at its best of two
    samples.  The m=3 probe (one request of 12-20 s) is made once per
    run, before the repeats: a run has no room for a second.
    """

    seed: int

    def __post_init__(self):
        self.frames = {m: frame(m) for m in (2, 3)}
        self.units = [self.bracket]
        self.once = (self.singlet_probe,)

    def warm_up(self):
        engine.lhs_feasibility_qubit(werner_assemblage(0.0, self.frames[2]), mesh=WERNER_MESH)

    def bracket(self, clock):
        axes = self.frames[2]
        probed = []

        def probe(p):
            verdict = clock.request(
                lambda: engine.lhs_feasibility_qubit(werner_assemblage(p, axes), mesh=WERNER_MESH)
            )
            probed.append((verdict, p))
            return verdict

        # the family is the identity: each probe builds its own assemblage
        # inside the timed request, so a request is one whole probe
        try:
            lo, hi = engine.threshold_scan(lambda p: p, probe, 0.0, 1.0, WERNER_BRACKET_TOL)
        except SteercertError as exc:  # e.g. a non-monotone family
            clock.answer(Answer("error", Errored(exc)))
            lo = hi = None
        clock.brackets.append((lo, hi, len(probed)))
        for verdict, p in probed:  # checked after the scan, outside its span
            clock.answer(_lhs_answer(verdict, p, axes))

    def singlet_probe(self, clock):
        axes3 = self.frames[3]
        verdict = clock.request(
            lambda: engine.lhs_feasibility_qubit(werner_assemblage(1.0, axes3), mesh=WERNER_MESH)
        )
        clock.answer(_lhs_answer(verdict, 1.0, axes3))


def _lhs_answer(verdict, p, axes):
    expected = FEASIBLE if p <= lhs_threshold(len(axes)) else INFEASIBLE
    return Answer("lhs", verdict, expected, {"p": p, "axes": axes})


@dataclass
class QubitVerdicts(Workload):
    """A stream of random-frame Werner scenarios at mesh 162."""

    seed: int

    def __post_init__(self):
        # p and eta are stratified within each m, so the pool covers the
        # easy and the near-threshold (expensive) regions in equal measure
        rng = np.random.default_rng([POOL_SEED, 1])
        self.scenarios = []
        for m, count in STREAM_SCENARIOS.items():
            ps, etas = _stratified(rng, count), _stratified(rng, count)
            self.scenarios += [
                {"axes": frame(m, rng), "p": float(p), "eta": float(eta), "x": int(rng.integers(m))}
                for p, eta in zip(ps, etas)
            ]
        self.order = np.random.default_rng(self.seed).permutation(len(self.scenarios))
        self.units = [partial(self.answer, self.scenarios[i]) for i in self.order]

    def warm_up(self):
        sc = self.scenarios[0]
        engine.lhs_feasibility_qubit(werner_assemblage(sc["p"], sc["axes"]), mesh=STREAM_MESH)

    @staticmethod
    def answer(sc, clock):
        answers = clock.request(lambda: _answer_scenario(sc))
        if not isinstance(answers, list):  # the request raised
            answers = [Answer("error", answers)]
        for ans in answers:
            clock.answer(ans)


def _answer_scenario(sc) -> list:
    axes, p, eta, x = sc["axes"], sc["p"], sc["eta"], sc["x"]
    m = len(axes)
    asm = werner_assemblage(p, axes)
    tests = [scenario.pauli_povm(n) for n in axes]
    ctx = {"p": p, "axes": axes}
    out = [
        Answer("lhs", engine.lhs_feasibility_qubit(asm, mesh=STREAM_MESH),
               FEASIBLE if p <= lhs_threshold(m) else INFEASIBLE, ctx),
        Answer("pv", engine.pv_feasibility(asm, tests, mesh=STREAM_MESH),
               INFEASIBLE, {**ctx, "tests": axes}),
    ]
    one = werner_assemblage(p, axes[x : x + 1])
    out.append(
        Answer("pv", engine.pv_feasibility(one, tests[x : x + 1], mesh=STREAM_MESH),
               FEASIBLE, {**ctx, "axes": axes[x : x + 1], "tests": axes[x : x + 1]})
    )
    noisy = [scenario.noisy_pauli_povm(n, eta) for n in axes]
    out.append(
        Answer("jm", engine.joint_measurability(noisy, mesh=STREAM_MESH),
               FEASIBLE if eta <= lhs_threshold(m) else INFEASIBLE, {"eta": eta, "axes": axes})
    )
    obs = [scenario.pauli_observable(n) for n in axes]
    f_val = witnesses.cjwr(witnesses.correlators_from_assemblage(asm, obs))
    out.append(Answer("cjwr", f_val, INFEASIBLE if p > lhs_threshold(m) else FEASIBLE, ctx))
    return out


# ---------------------------------------------------------------------------
# box world


def lifted_prbox(x_settings: int, y_settings: int) -> boxworld.GptAssemblage:
    """PR box on settings lifted by x mod 2 and y mod 2: b = a xor ((x%2) and (y%2))."""
    one, zero = Fraction(1), Fraction(0)
    entries = {}
    for x in range(x_settings):
        for a in range(2):
            table = {
                (y, b): one if b == a ^ ((x % 2) & (y % 2)) else zero
                for y in range(y_settings)
                for b in range(2)
            }
            entries[(x, a)] = (Fraction(1, 2), boxworld.GptState(y_settings, 2, table))
    return boxworld.GptAssemblage(x_settings, 2, entries)


def prbox_mixture(lam: Fraction, x_settings: int = 2, y_settings: int = 2):
    """lam * (lifted) PR box + (1 - lam) * uniform; local iff lam <= 1/2."""
    return boxworld.mix_assemblages(
        lam,
        lifted_prbox(x_settings, y_settings),
        boxworld.uniform_assemblage(x_settings, 2, y_settings, 2),
    )


def random_local_box(rng, x_settings=3, a_outcomes=3, y_settings=2, b_outcomes=2, k=5):
    """Mixture of k random deterministic boxes with random integer weights (local)."""
    weights = [int(w) for w in rng.integers(1, 97, size=k)]
    total = sum(weights)
    strategies = [
        (
            tuple(int(v) for v in rng.integers(a_outcomes, size=x_settings)),
            tuple(int(v) for v in rng.integers(b_outcomes, size=y_settings)),
        )
        for _ in range(k)
    ]
    entries = {}
    for x in range(x_settings):
        for a in range(a_outcomes):
            mass = sum(Fraction(w, total) for w, (sa, _) in zip(weights, strategies) if sa[x] == a)
            table = {}
            for y in range(y_settings):
                for b in range(b_outcomes):
                    if mass == 0:
                        table[(y, b)] = Fraction(1, b_outcomes)
                    else:
                        hit = sum(
                            Fraction(w, total)
                            for w, (sa, sb) in zip(weights, strategies)
                            if sa[x] == a and sb[y] == b
                        )
                        table[(y, b)] = hit / mass
            entries[(x, a)] = (mass, boxworld.GptState(y_settings, b_outcomes, table))
    return boxworld.GptAssemblage(x_settings, a_outcomes, entries)


def _rational_below_half(rng) -> Fraction:
    den = int(rng.integers(3, 60))
    return Fraction(int(rng.integers(1, (den - 1) // 2 + 1)), den)


def _rational_above_half(rng) -> Fraction:
    den = int(rng.integers(3, 60))
    return Fraction(int(rng.integers(den // 2 + 1, den + 1)), den)


def box_cases(seed: int) -> list:
    """(name, assemblage, expected) drawn from one seed; the first is the lam = 1/2 box."""
    rng = np.random.default_rng([seed, 2])
    cases = [("prbox-2222 lam=1/2", prbox_mixture(Fraction(1, 2)), FEASIBLE)]
    for i in range(PR_MIXTURES):
        lam = _rational_below_half(rng) if i % 2 else _rational_above_half(rng)
        cases.append((f"prbox-2222 lam={lam}", prbox_mixture(lam), _box_answer(lam)))
    for i in range(LIFTED_MIXTURES):
        lam = _rational_below_half(rng) if i % 2 else _rational_above_half(rng)
        cases.append((f"prbox-3232 lam={lam}", prbox_mixture(lam, 3, 3), _box_answer(lam)))
    for i in range(LOCAL_BOXES):
        cases.append((f"local-3322 #{i}", random_local_box(rng), FEASIBLE))
    cases.append(("uniform-3322", boxworld.uniform_assemblage(3, 3, 2, 2), FEASIBLE))
    return cases


def _box_answer(lam: Fraction) -> str:
    return FEASIBLE if lam <= Fraction(1, 2) else INFEASIBLE


@dataclass
class BoxExact(Workload):
    """``steercert check`` on generated box files, exact mode."""

    seed: int
    workdir: str

    def __post_init__(self):
        self.cases = []
        for i, (label, asm, expected) in enumerate(box_cases(POOL_SEED)):
            path = os.path.join(self.workdir, f"box{i}.json")
            with open(path, "w") as fh:
                json.dump(boxworld.box_to_json(asm), fh)
            self.cases.append((label, asm, expected, path))
        self.order = np.random.default_rng(self.seed).permutation(len(self.cases))
        self.report = os.path.join(self.workdir, "report.json")
        self.units = [partial(self.check, *self.cases[i]) for i in self.order]

    def warm_up(self):
        _run_check(self.cases[0][3], self.report)

    def check(self, label, asm, expected, path, clock):
        code = clock.request(lambda: _run_check(path, self.report))
        clock.answer(Answer("box", code, expected, {"label": label, "asm": asm, "report": self.report}))


def _run_check(path, report) -> int:
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["check", path, "--out", report])


WORKLOADS = {
    "werner-bracket": WernerBracket,
    "qubit-verdicts": QubitVerdicts,
    "box-exact": BoxExact,
}


def warm_up(name: str, seed: int, workdir: str):
    """The warm-up call alone, for a fresh process; box files must already exist."""
    if name == "box-exact":
        _run_check(os.path.join(workdir, "box0.json"), os.path.join(workdir, "warm-up.json"))
    else:
        WORKLOADS[name](seed).warm_up()


def make(name: str, seed: int, workdir: str):
    if name == "box-exact":
        return BoxExact(seed, workdir)
    return WORKLOADS[name](seed)
