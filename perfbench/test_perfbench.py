"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np

import checker
import run
import workloads
from steercert import boxworld, engine
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
XZ = workloads.frame(2)


def _verdict(p, axes=XZ, mesh=42):
    return engine.lhs_feasibility_qubit(workloads.werner_assemblage(p, axes), mesh=mesh)


def _lhs(verdict, p, axes=XZ):
    return workloads._lhs_answer(verdict, p, axes)


def test_checker_accepts_and_rejects_a_tampered_model():
    verdict = _verdict(0.4)
    assert checker.check(_lhs(verdict, 0.4)) == ("feasible", None)
    model = verdict.lhs_model
    weights = np.array(model.weights, dtype=float)
    k = int(np.argmax(weights))
    shifted = weights.copy()
    shifted[k] -= 1e-3
    shifted[(k + 1) % len(shifted)] += 1e-3
    tampered = dataclasses.replace(verdict, lhs_model=dataclasses.replace(model, weights=shifted))
    status, failure = checker.check(_lhs(tampered, 0.4))
    assert failure is not None and "rebuilds" in failure


def test_checker_rejects_a_tampered_certificate():
    verdict = _verdict(0.95)
    assert checker.check(_lhs(verdict, 0.95)) == ("infeasible", None)
    for bad in (-np.asarray(verdict.certificate), np.zeros(len(verdict.certificate))):
        status, failure = checker.check(_lhs(dataclasses.replace(verdict, certificate=bad), 0.95))
        assert failure is not None and "c.b" in failure


def test_checker_rejects_a_certificate_negative_on_the_ball():
    # lowering a trace entry makes c negative on states of the strategies
    # answering a=0 on x=0, by more than c.b is negative
    verdict = _verdict(0.95)
    c = np.asarray(verdict.certificate, dtype=float).copy()
    c[0] -= 10.0
    status, failure = checker.check(_lhs(dataclasses.replace(verdict, certificate=c), 0.95))
    assert failure is not None


def test_checker_rejects_a_contradiction_of_the_known_answer():
    verdict = _verdict(0.95)
    answer = workloads.Answer("lhs", verdict, workloads.FEASIBLE, {"p": 0.95, "axes": XZ})
    assert "contradicts" in checker.check(answer)[1]


def test_checker_rejects_tampered_parent_effects_and_jm_certificates():
    noisy = [workloads.scenario.noisy_pauli_povm(n, 0.5) for n in XZ]
    verdict = engine.joint_measurability(noisy, mesh=42)
    answer = workloads.Answer("jm", verdict, workloads.FEASIBLE, {"eta": 0.5, "axes": XZ})
    assert checker.check(answer) == ("feasible", None)
    parents = list(verdict.parent_effects)
    parents[0] = parents[0] + 1e-3 * np.eye(2)
    answer.verdict = dataclasses.replace(verdict, parent_effects=tuple(parents))
    assert checker.check(answer)[1] is not None

    noisy = [workloads.scenario.noisy_pauli_povm(n, 0.95) for n in XZ]
    verdict = engine.joint_measurability(noisy, mesh=42)
    answer = workloads.Answer("jm", verdict, workloads.INFEASIBLE, {"eta": 0.95, "axes": XZ})
    assert checker.check(answer) == ("infeasible", None)
    answer.verdict = dataclasses.replace(verdict, certificate=-np.asarray(verdict.certificate))
    assert checker.check(answer)[1] is not None


def _box_answer(tmp_path, asm, expected):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(boxworld.box_to_json(asm)))
    report = tmp_path / "report.json"
    code = workloads._run_check(str(path), str(report))
    return workloads.Answer("box", code, expected, {"asm": asm, "report": str(report)})


def _tamper_report(path, edit):
    doc = json.loads(open(path).read())
    edit(doc["verdicts"][0])
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_box_checker_rejects_tampered_models_and_certificates(tmp_path):
    answer = _box_answer(tmp_path, workloads.prbox_mixture(Fraction(1, 2)), workloads.FEASIBLE)
    assert checker.check(answer) == ("feasible", None)

    def shift_weight(entry):
        w = entry["lhs_model"]["weights"]
        w[0], w[1] = str(Fraction(w[0]) - Fraction(1, 97)), str(Fraction(w[1]) + Fraction(1, 97))

    _tamper_report(answer.context["report"], shift_weight)
    assert "re-substitute" in checker.check(answer)[1]

    answer = _box_answer(tmp_path, workloads.prbox_mixture(Fraction(3, 5)), workloads.INFEASIBLE)
    assert checker.check(answer) == ("infeasible", None)

    def negate(entry):
        entry["certificate"] = [str(-Fraction(v)) for v in entry["certificate"]]

    _tamper_report(answer.context["report"], negate)
    assert "separate" in checker.check(answer)[1]


def test_box_generators_reproduce_their_known_answers(tmp_path):
    cases = workloads.box_cases(seed=3)
    assert cases[0][0] == "prbox-2222 lam=1/2" and cases[-1][0] == "uniform-3322"
    for label, asm, expected in cases[:-1]:
        if label.startswith("prbox-2222"):
            # independent of the LP: CHSH of lam * PR + (1 - lam) * uniform is 4 lam
            chsh = boxworld.chsh_value(boxworld.joint_from_assemblage(asm))
            assert (chsh <= 2) == (expected == workloads.FEASIBLE)
        status, failure = checker.check(_box_answer(tmp_path, asm, expected))
        assert failure is None, (label, status, failure)


def test_qubit_generators_reproduce_their_known_answers():
    stream = workloads.QubitVerdicts(seed=0)
    assert len(stream.scenarios) == sum(workloads.STREAM_SCENARIOS.values())
    for sc in stream.scenarios[:2]:
        axes = sc["axes"]
        assert np.allclose(axes @ axes.T, np.eye(len(axes)))
        asm = workloads.werner_assemblage(sc["p"], axes)
        closed = workloads.werner_blocks(sc["p"], axes)
        assert all(np.allclose(asm.block(*k), v) for k, v in closed.items())
        for answer in workloads._answer_scenario(sc):
            assert checker.check(answer)[1] is None


def test_werner_bracket_is_the_canonical_frame():
    bracket = workloads.WernerBracket(seed=7)
    assert np.array_equal(bracket.frames[2], np.eye(3)[[0, 2]])
    assert np.array_equal(bracket.frames[3], np.eye(3))


def test_seed_orders_a_fixed_pool():
    a, b, c = (workloads.QubitVerdicts(seed=s) for s in (5, 5, 6))
    assert list(a.order) == list(b.order) and list(a.order) != list(c.order)
    assert sorted(a.order) == list(range(len(a.scenarios)))
    assert all(np.array_equal(x["axes"], y["axes"]) and x["p"] == y["p"]
               for x, y in zip(a.scenarios, c.scenarios))
    assert [c[0] for c in workloads.box_cases(5)] == [c[0] for c in workloads.box_cases(5)]
    assert [c[0] for c in workloads.box_cases(5)] != [c[0] for c in workloads.box_cases(6)]


def test_pivot_and_call_counts_repeat_exactly():
    stream = workloads.QubitVerdicts(seed=2)
    stream.units = stream.units[:2]
    figures = []
    for _ in range(2):
        tracer, clock = Tracer(), run.Clock()
        with tracer:
            stream.run_pass(clock)
        counts = {k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")}
        figures.append(counts)
        assert clock.failed == 0
    assert figures[0] == figures[1]
    assert figures[0]["lp.float.calls"] > 0 and figures[0]["lp.float.pivots"] > 0


def test_tracer_restores_the_program_and_skips_what_it_lacks(monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("steercert.no_such_module", "f", "lp.float"),
        ("steercert.engine", "no_such_function", "engine"),
    ])
    original = engine.solve_feasibility_float
    with Tracer():
        assert engine.solve_feasibility_float is not original
    assert engine.solve_feasibility_float is original


def test_job_time_takes_each_request_at_its_best():
    samples = [[0.3, 0.1, 0.2], [1.0, 2.0], [0.2]]
    assert run.best_times(samples) == [0.1, 1.0, 0.2]
    assert run.job_time(samples) == sum([0.1, 1.0, 0.2])


class _Units:
    """One-request units with fixed latencies."""

    def __init__(self, costs, once=()):
        self.units = [lambda clock, c=c: clock.request(lambda: c) for c in costs]
        self.once = [lambda clock, c=c: clock.request(lambda: c) for c in once]


class _FakeClock:
    def __init__(self, now):
        self.latencies = []
        self.now = now

    def request(self, fn):
        self.latencies.append(fn())
        self.now[0] += self.latencies[-1]

    def end_pass(self):
        pass


def test_run_units_completes_a_pass_and_repeats_what_fits(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    samples = run.run_units(_Units([3.0, 1.0, 2.0]), 9.5, _FakeClock(now))
    # one whole pass (6 s), then the first unit again; the second would end past 9.5 s
    assert samples == [[3.0, 3.0], [1.0], [2.0]]
    now[0] = 0.0
    assert run.run_units(_Units([9.0, 1.0]), 8.0, _FakeClock(now)) == [[9.0], [1.0]]
    # a once-per-run unit comes first, is not repeated, and leaves the repeats their time
    now[0] = 0.0
    samples = run.run_units(_Units([3.0, 1.0, 2.0], once=[20.0]), 9.5, _FakeClock(now))
    assert samples == [[20.0], [3.0, 3.0], [1.0], [2.0]]


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(run.PER_LAYER_TIMES) | set(run.PER_LAYER_COUNTS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
