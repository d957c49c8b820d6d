from __future__ import annotations

import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import steercert
from steercert import boxworld, cli, engine
from steercert.boxworld import box_to_json, prbox_assemblage
from steercert.errors import InputError, InternalCheckError
from steercert.linalg import bloch_state
from steercert.report import RunReport, write_csv
from steercert.scenario import matrix_to_json, pauli_povm


def quantum_doc(p=0.75, with_bob=True, bob_eta=None):
    from steercert.scenario import noisy_pauli_povm

    def povm_json(povm):
        return [matrix_to_json(e) for e in povm.effects]

    alice = [povm_json(pauli_povm("x")), povm_json(pauli_povm("z"))]
    doc = {"dimA": 2, "dimB": 2, "state": {"kind": "werner", "p": p}, "alice_povms": alice}
    if with_bob:
        if bob_eta is None:
            doc["bob_povms"] = alice
        else:
            doc["bob_povms"] = [
                povm_json(noisy_pauli_povm("x", bob_eta)),
                povm_json(noisy_pauli_povm("z", bob_eta)),
            ]
    return doc


def test_run_report_round_trip(tmp_path):
    box = tmp_path / "box.json"
    box.write_text(json.dumps(box_to_json(prbox_assemblage())))
    quantum = tmp_path / "q.json"
    quantum.write_text(json.dumps(quantum_doc()))
    reports = [
        cli.cmd_prbox(),
        cli.cmd_singlet_cjwr(settings=2),
        cli.cmd_werner_scan(grid=(0.5, 0.9, 0.2), bracket_tol=0.1),
        cli.cmd_werner_scan(grid=(0.5, 0.9, 0.2), witness_only=True),
        cli.cmd_reid(r=0.5),
        cli.cmd_reid(sweep=(0.0, 1.0, 0.5)),
        cli.cmd_check(box),
        cli.cmd_check(quantum),
    ]
    for report in reports:
        assert report.version == steercert.__version__
        clone = RunReport.from_json(report.to_json())
        assert clone == report, report.command
        assert "\n" not in report.to_json()
        assert clone.to_json() == report.to_json()
    with pytest.raises(InputError):
        RunReport.from_dict({"command": "x"})


def test_write_csv_formats_booleans(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "flag"], [[1.5, True], [2.5, False]])
    lines = path.read_text().strip().splitlines()
    assert lines == ["a,flag", "1.5,true", "2.5,false"]


def test_cmd_singlet_cjwr_values():
    report = cli.cmd_singlet_cjwr(settings=2)
    assert abs(report.witness_values["F"] - math.sqrt(2.0)) < 1e-12
    statuses = {v["name"]: v["status"] for v in report.verdicts}
    assert statuses["lhs"] == "infeasible"
    assert statuses["pv[all tests]"] == "infeasible"
    assert len(report.details["certain_contexts"]) == 4
    lhs_meta = report.verdicts[0]["meta"]
    assert lhs_meta["rounds"] >= 1 and lhs_meta["columns"] > 0 and lhs_meta["margin"] > 0

    report = cli.cmd_singlet_cjwr(settings=3)
    assert abs(report.witness_values["F"] - math.sqrt(3.0)) < 1e-12
    assert {v["name"]: v["status"] for v in report.verdicts}["lhs"] == "infeasible"


def test_cmd_singlet_cjwr_werner_override():
    report = cli.cmd_singlet_cjwr(settings=2, werner_p=0.0)
    assert abs(report.witness_values["F"]) < 1e-12
    statuses = {v["name"]: v["status"] for v in report.verdicts}
    assert statuses["lhs"] == "feasible"
    assert statuses["pv[test 0]"] == "feasible"
    assert statuses["pv[test 1]"] == "feasible"
    assert report.details["certain_contexts"] == []


def test_cmd_werner_scan_grid_and_bracket():
    report = cli.cmd_werner_scan(settings=2, grid=(0.5, 0.9, 0.1), bracket_tol=0.02)
    rows = report.details["csv_rows"]
    assert [row[0] for row in rows] == [0.5, 0.6, 0.7, 0.8, 0.9]
    for p, f, status in rows:
        assert abs(f - p * math.sqrt(2.0)) < 1e-12
    assert rows[-1][2] == "infeasible"
    lo = report.witness_values["p_feasible_max"]
    hi = report.witness_values["p_infeasible_min"]
    assert lo < 1.0 / math.sqrt(2.0) < hi


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a Feasible qubit verdict only rebuilds the input within MODEL_TOL, "
    "so the 1e-10 bisection ends just above 1/sqrt(m)",
)
@pytest.mark.parametrize("m", [2, 3])
def test_cmd_werner_scan_fine_bracket_contains_the_threshold(m):
    report = cli.cmd_werner_scan(settings=m, grid=(0.5, 0.6, 0.1), bracket_tol=1e-10)
    lo, hi = report.details["bracket"]
    assert lo <= 1.0 / math.sqrt(m) <= hi


def test_cmd_werner_scan_solves_each_p_once(monkeypatch):
    # the default grid and the bisection both probe p = 0.5 and 0.75:
    # 18 probes, 16 distinct weights, one LHS verdict each
    probed = []
    solve = engine.lhs_feasibility_qubit
    monkeypatch.setattr(engine, "lhs_feasibility_qubit", lambda asm: probed.append(asm) or solve(asm))
    report = cli.cmd_werner_scan(settings=2)
    assert len(probed) == 16
    grid = {p: status for p, _, status in report.details["csv_rows"]}
    assert grid[0.5] == "feasible" and grid[0.75] == "infeasible"
    assert report.details["bracket"] == [0.703125, 0.7109375]


def test_cmd_werner_scan_witness_only():
    report = cli.cmd_werner_scan(settings=3, witness_only=True, grid=(0.4, 0.8, 0.2))
    assert abs(report.witness_values["crossing_p"] - 1.0 / math.sqrt(3.0)) < 1e-15
    assert "bracket" not in report.details


def test_cmd_werner_scan_validation():
    with pytest.raises(InputError):
        cli.cmd_werner_scan(settings=4)
    with pytest.raises(InputError):
        cli.cmd_werner_scan(grid=(0.9, 0.5, 0.1))


def test_cmd_prbox_report():
    report = cli.cmd_prbox()
    assert report.witness_values["chsh"] == 4.0
    assert report.details["chsh_exact"] == "4"
    assert report.witness_values["chsh"] > report.witness_values["quantum_bound"]
    assert report.details["no_signalling"]["passed"] is True
    statuses = {v["name"]: v["status"] for v in report.verdicts}
    assert statuses == {"lhs": "infeasible", "pv": "infeasible"}


def test_cmd_prbox_solves_the_box_lp_once(monkeypatch):
    # the PV entry is the LHS verdict relabelled, as pv_feasibility has it
    want = cli._verdict_entry("pv", engine.pv_feasibility(boxworld.prbox_assemblage()))
    calls = []
    solve = engine.lhs_feasibility_boxworld
    monkeypatch.setattr(engine, "lhs_feasibility_boxworld", lambda asm: calls.append(asm) or solve(asm))
    report = cli.cmd_prbox()
    assert len(calls) == 1
    (pv,) = [v for v in report.verdicts if v["name"] == "pv"]
    assert pv == want
    assert pv["meta"]["question"] == "pv" and pv["meta"]["note"] == "deterministic tables span the state polytope"


def test_cmd_reid_point_and_sweep():
    report = cli.cmd_reid(0.69)
    assert abs(report.witness_values["product"] - 0.23660349919558887) < 1e-12
    assert report.details["steering"] is True
    report = cli.cmd_reid(sweep=(0.0, 1.0, 0.25))
    rows = report.details["csv_rows"]
    assert len(rows) == 5
    products = [row[3] for row in rows]
    assert all(b < a for a, b in zip(products, products[1:]))


def test_main_prbox_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["prbox", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["witness_values"]["chsh"] == 4.0
    captured = capsys.readouterr()
    assert "lhs: infeasible" in captured.out


def test_main_reid_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = cli.main(["reid", "--sweep", "0:1:0.5", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "r,var_x_inf,var_p_inf,product,steering_flag"
    assert len(lines) == 4


def test_main_check_quantum(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(quantum_doc(p=0.75)))
    assert cli.main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lhs: infeasible" in out and "F = 1.060660" in out


def test_main_check_quantum_witness_skipped_for_unsharp_bob(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(quantum_doc(p=0.3, bob_eta=0.7)))
    report = cli.cmd_check(path)
    assert report.details["witness_skipped"] == "observable 0 does not have a +-1 spectrum"
    assert "F" not in report.witness_values


def test_main_check_quantum_witness_skipped_for_trine_alice(tmp_path):
    # three-outcome Alice POVMs with a +-1 Bob test: the skip names Alice's outcomes
    angles = (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
    trine = [matrix_to_json(2 / 3 * bloch_state([np.sin(t), 0.0, np.cos(t)])) for t in angles]
    doc = {
        "dimA": 2,
        "dimB": 2,
        "state": {"kind": "singlet"},
        "alice_povms": [trine],
        "bob_povms": [[matrix_to_json(e) for e in pauli_povm("z").effects]],
    }
    path = tmp_path / "trine.json"
    path.write_text(json.dumps(doc))
    report = cli.cmd_check(path)
    assert report.details["witness_skipped"] == "correlators need binary Alice outcomes mapped to (-1)^a"
    assert "F" not in report.witness_values


@pytest.mark.parametrize(
    "argv",
    [["prbox", "--out", "missing/r.json"], ["reid", "--sweep", "0:1:0.5", "--csv", "missing/x.csv"]],
    ids=["out", "csv"],
)
def test_main_unwritable_output_is_an_input_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {argv[-1]}: ") and "Traceback" not in err


def test_reid_takes_exactly_one_of_r_and_sweep(capsys):
    assert cli.main(["reid", "--r", "1", "--sweep", "0:1:0.5"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    for kwargs in ({}, {"r": 1.0, "sweep": (0.0, 1.0, 0.5)}):
        with pytest.raises(InputError, match="exactly one of r and sweep"):
            cli.cmd_reid(**kwargs)
    assert cli.cmd_reid(sweep=(0.0, 1.0, 0.5)).inputs["r"] is None


def test_main_check_box(tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(box_to_json(prbox_assemblage())))
    assert cli.main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "chsh = 4.0" in out and "lhs: infeasible" in out


def test_main_shared_parser_carries_no_state_between_calls(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "box.json"
    path.write_text(json.dumps(box_to_json(prbox_assemblage())))
    assert cli.main(["check", str(path), "--out", "a.json"]) == 0
    written = (tmp_path / "a.json").read_text()
    assert cli.main(["reid"]) == 1  # usage error: one of --r and --sweep is required
    assert cli.main(["prbox"]) == 0
    assert "lhs: infeasible" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "box.json"]
    assert (tmp_path / "a.json").read_text() == written


@pytest.mark.parametrize(
    "field, value",
    [("weight", 0.5), ("table", 1.0), ("weight", True)],
    ids=["float-weight", "float-table-entry", "true-weight"],
)
def test_main_check_box_rejects_inexact_probabilities(tmp_path, capsys, field, value):
    doc = box_to_json(prbox_assemblage())
    cell = doc["entries"][1][0]
    if field == "weight":
        cell["weight"] = value
        named = "'weight'"
    else:
        cell["table"][1][0] = value
        named = "'table[1][0]'"
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: box entry (x=1, a=0) field " + named)
    assert "Traceback" not in err


def test_main_input_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["check", str(bad)]) == 1
    assert cli.main(["check", str(tmp_path / "missing.json")]) == 1
    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps({"hello": 1}))
    assert cli.main(["check", str(weird)]) == 1
    q = tmp_path / "q.json"
    q.write_text(json.dumps(quantum_doc()))
    capsys.readouterr()
    assert cli.main(["check", str(q), "--mode", "exact"]) == 1  # --mode is gone: unknown flag
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    assert cli.main(["reid", "--r", "-2"]) == 1
    assert cli.main(["werner-scan", "--grid", "0.5:0.9:inf"]) == 1
    assert cli.main(["reid", "--sweep", "0:inf:1"]) == 1
    # refused before np.arange, which would raise or allocate the points
    assert cli.main(["werner-scan", "--grid", "0.5:0.6:1e-30"]) == 1
    assert cli.main(["reid", "--sweep", "0:1:1e-300"]) == 1
    assert capsys.readouterr().err.count(f"has more than {cli.MAX_GRID_POINTS} points") == 2
    assert cli.main(["singlet-cjwr", "--csv", "x.csv"]) == 1  # unknown flag for this command
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["check", "--help"]) == 0
    assert "--mode" not in capsys.readouterr().out


_BOX = box_to_json(prbox_assemblage())
_NON_HERMITIAN = np.array([[0, 0], [1, 0]])
MALFORMED_DOCS = {
    "box count not a number": dict(_BOX, x_settings="a"),
    "box count zero": dict(_BOX, x_settings=0),
    "box count negative": dict(_BOX, x_settings=-1),
    "dimension not a number": dict(quantum_doc(), dimA="a"),
    "state not an object": dict(quantum_doc(), state="werner"),
    "werner weight not a number": dict(quantum_doc(), state={"kind": "werner", "p": "x"}),
    "explicit state without matrix": dict(quantum_doc(), state={"kind": "explicit"}),
    "povm list not a list": dict(quantum_doc(), alice_povms=5),
    "non-Hermitian effect": dict(
        quantum_doc(),
        alice_povms=[[matrix_to_json(_NON_HERMITIAN), matrix_to_json(np.eye(2) - _NON_HERMITIAN)]],
    ),
    "qutrit Bob": {
        "dimA": 2,
        "dimB": 3,
        "state": {"kind": "explicit", "matrix": matrix_to_json(np.eye(6) / 6)},
        "alice_povms": [[matrix_to_json(e) for e in pauli_povm("z").effects]],
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
def test_main_check_malformed_scenario_is_an_input_error(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_DOCS[case]))
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag", [["--tol", "1e-9"], ["--mesh", "642"]], ids=["tol", "mesh"])
@pytest.mark.parametrize("command", ["singlet-cjwr", "werner-scan", "check"])
def test_main_rejects_removed_flags(tmp_path, capsys, command, flag):
    # the LP tolerance is a constant and the qubit engine's seed stays
    # inside the engine, so neither flag exists on any subcommand
    path = tmp_path / "q.json"
    path.write_text(json.dumps(quantum_doc()))
    argv = [command, str(path)] if command == "check" else [command]
    assert cli.main([*argv, *flag]) == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_reports_echo_no_seed_and_ship_one_weight_per_strategy(tmp_path):
    quantum = tmp_path / "q.json"
    quantum.write_text(json.dumps(quantum_doc(p=0.4, bob_eta=0.5)))
    reports = [
        cli.cmd_singlet_cjwr(settings=2, werner_p=0.0),
        cli.cmd_singlet_cjwr(settings=3, werner_p=0.0),
        cli.cmd_werner_scan(grid=(0.5, 0.9, 0.2), bracket_tol=0.1),
        cli.cmd_check(quantum),
    ]
    for report in reports:
        assert "mesh" not in report.inputs, report.command
    feasible = [
        (report.inputs.get("settings", 2), entry)
        for report in reports
        for entry in report.verdicts
        if entry["status"] == "feasible"
    ]
    names = sorted(entry["name"] for _, entry in feasible)
    assert names == ["lhs"] * 3 + ["pv[test 0]"] * 2 + ["pv[test 1]"] * 2 + ["pv[test 2]"]
    for settings, entry in feasible:
        # the model is the strategy weights, which lhs_model lists where nonzero
        assert len(entry["model"]) == 2**settings, entry["name"]
        assert [w for w in entry["model"] if w > 0] == entry["lhs_model"]["weights"], entry["name"]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every `steercert ...` line of the README's "Command line" block runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("steercert ")]
    assert lines
    (tmp_path / "scenario.json").write_text(json.dumps(quantum_doc()))
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_main_internal_error_exit_code(monkeypatch, capsys):
    def boom():
        raise InternalCheckError("substitution failed")

    monkeypatch.setattr(cli, "cmd_prbox", boom)
    assert cli.main(["prbox"]) == 2
    assert "internal check failed" in capsys.readouterr().err


def test_verdict_content_does_not_affect_exit_code(tmp_path, capsys):
    # a steerable scenario is not an error
    path = tmp_path / "steer.json"
    path.write_text(json.dumps(quantum_doc(p=0.9)))
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
