"""Command-line entry point.

Every command returns a RunReport; ``--out`` writes it as JSON and
``--csv`` writes tabular output where a command produces one.  Exit
codes: 0 = ran (verdict content never affects the exit code), 1 = input
error, 2 = internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import boxworld, engine, gaussian, scenario, witnesses
from .errors import InputError, InternalCheckError, SteercertError
from .lp.problem import jsonify
from .report import RunReport, write_csv

_AXES = {2: ("x", "z"), 3: ("x", "y", "z")}
# the most points a werner-scan grid or a reid sweep may have
MAX_GRID_POINTS = 10_000


def _verdict_entry(name: str, verdict) -> dict:
    return {"name": name, **verdict.to_dict()}


def _certain_contexts(asm, tests) -> list:
    """The report entry for every (context, test) pair answered with certainty."""
    return [
        {"context": list(r.context), "test": list(r.test), "probability": r.probability}
        for r in scenario.scan_predictability(asm, tests)
    ]


def _report(command, inputs, verdicts, witness_values, details, t0) -> RunReport:
    # JSON-native values throughout, so RunReport round-trips losslessly
    return RunReport(
        command=command,
        inputs=jsonify(inputs),
        verdicts=verdicts,
        witness_values=jsonify(witness_values),
        timing_ms=(time.perf_counter() - t0) * 1000.0,
        details=jsonify(details),
    )


def _matched_setup(settings: int, werner_p: float | None):
    """Assemblage of Pauli measurements on the standard axes, and the
    matched Pauli tests for Bob."""
    if settings not in _AXES:
        raise InputError(f"settings must be 2 or 3, got {settings}")
    povms = [scenario.pauli_povm(ax) for ax in _AXES[settings]]
    rho = scenario.singlet() if werner_p is None else scenario.werner_state(werner_p)
    return scenario.assemblage_from_povms(rho, povms), povms


def _correlators(asm, bob):
    """Matched correlators with Bob's binary test y read as the observable
    E_0 - E_1."""
    return witnesses.correlators_from_assemblage(asm, [p.effects[0] - p.effects[1] for p in bob])


def _quantum_checks(asm, bob) -> tuple:
    """(verdicts, witness_values, details) of a qubit assemblage: the LHS
    verdict and, given Bob's tests, the PV verdict over all of them, the
    certain contexts, and the CJWR witness F with its local bound
    ``F_bound`` for Bob's axes when the tests are one +-1 observable per
    setting."""
    verdicts = [_verdict_entry("lhs", engine.lhs_feasibility_qubit(asm))]
    witness_values, details = {}, {}
    if not bob:
        return verdicts, witness_values, details
    pv = engine.pv_feasibility(asm, bob)
    verdicts.append(_verdict_entry("pv[all tests]", pv))
    details["certain_contexts"] = _certain_contexts(asm, bob)
    if len(bob) == asm.settings and all(p.num_outcomes == 2 for p in bob):
        try:
            corr = _correlators(asm, bob)
        except InputError as exc:
            details["witness_skipped"] = str(exc)
        else:
            cj = witnesses.cjwr(corr)
            witness_values["F"] = cj.F
            witness_values["F_bound"] = cj.bound
            witness_values["s_m"] = witnesses.s_m(corr)
            for x, v in enumerate(corr.values):
                witness_values[f"correlator[{x}]"] = v
            details["violated"] = cj.violated
    return verdicts, witness_values, details


def cmd_singlet_cjwr(settings: int = 2, werner_p: float | None = None) -> RunReport:
    """Matched-Pauli correlation witness plus local-model and pinned-value
    feasibility for the singlet (or a Werner state via ``werner_p``)."""
    t0 = time.perf_counter()
    asm, bob = _matched_setup(settings, werner_p)
    verdicts, witness_values, details = _quantum_checks(asm, bob)
    for y, povm in enumerate(bob):
        pv = engine.pv_feasibility(asm, [povm])
        verdicts.append(_verdict_entry(f"pv[test {y}]", pv))
    inputs = {
        "settings": settings,
        "state": "singlet" if werner_p is None else f"werner(p={werner_p})",
    }
    return _report("singlet-cjwr", inputs, verdicts, witness_values, details, t0)


def cmd_werner_scan(
    settings: int = 2,
    grid: tuple = (0.5, 0.9, 0.05),
    bracket_tol: float = 0.01,
    witness_only: bool = False,
) -> RunReport:
    """Scan Werner weight p: per-point witness value and LHS verdict, plus
    the feasible/infeasible threshold bracket (or, with ``witness_only``,
    the exact witness crossing 1/sqrt(m) and no LP calls)."""
    t0 = time.perf_counter()
    lo, hi, step = grid
    if not (0.0 <= lo < hi <= 1.0 and step > 0):
        raise InputError(f"grid must satisfy 0 <= lo < hi <= 1 with step > 0, got {grid}")
    # one set-up and one LHS verdict per p, shared by the grid and the bisection
    setup_at = functools.cache(lambda p: _matched_setup(settings, p))
    verdict_at = functools.cache(lambda p: engine.lhs_feasibility_qubit(setup_at(p)[0]))

    rows = []
    for p in _points(lo, hi, step, "grid"):
        asm, bob = setup_at(p)
        cj = witnesses.cjwr(_correlators(asm, bob))
        f_val = cj.F
        if witness_only:
            status = "infeasible" if cj.violated else "undecided"
        else:
            status = verdict_at(p).status
        rows.append([p, f_val, status])

    witness_values = {}
    details = {"csv_header": ["p", "F", "verdict"], "csv_rows": rows}
    if witness_only:
        witness_values["crossing_p"] = 1.0 / math.sqrt(settings)
    else:
        p_feas, p_infeas = engine.threshold_scan(float, verdict_at, 0.0, 1.0, bracket_tol)
        witness_values["p_feasible_max"] = p_feas
        if p_infeas is not None:
            witness_values["p_infeasible_min"] = p_infeas
        details["bracket"] = [p_feas, p_infeas]
    inputs = {
        "settings": settings,
        "grid": list(grid),
        "bracket_tol": bracket_tol,
        "witness_only": witness_only,
    }
    return _report("werner-scan", inputs, [], witness_values, details, t0)


def _box_checks(asm, pv: bool = False) -> tuple:
    """(verdicts, witness_values, details) of a box-world assemblage: the
    exact LHS verdict (and with ``pv`` the PV verdict, which on a box is
    the same LP, so it is relabelled rather than solved again), the exact
    no-signalling check and, for two inputs and two outputs on each side,
    the exact CHSH value."""
    ns = asm.no_signalling
    lhs = engine.lhs_feasibility_boxworld(asm)
    verdicts = [_verdict_entry("lhs", lhs)]
    if pv:
        verdicts.append(_verdict_entry("pv", engine.box_pv(lhs)))
    witness_values = {}
    details = {"no_signalling": {"passed": ns.passed, "max_deviation": ns.max_deviation}}
    if (asm.x_settings, asm.a_outcomes, asm.y_settings, asm.b_outcomes) == (2, 2, 2, 2):
        chsh = boxworld.chsh_value(boxworld.joint_from_assemblage(asm))
        witness_values["chsh"] = float(chsh)
        details["chsh_exact"] = str(chsh)
    return verdicts, witness_values, details


def cmd_prbox() -> RunReport:
    """Exact no-signalling, CHSH, and local-model analysis of the PR box."""
    t0 = time.perf_counter()
    asm = boxworld.prbox_assemblage()
    verdicts, witness_values, details = _box_checks(asm, pv=True)
    witness_values.update(local_bound=2.0, quantum_bound=2.0 * math.sqrt(2.0))
    return _report("prbox", {}, verdicts, witness_values, details, t0)


def cmd_reid(
    r: float | None = None,
    sweep: tuple | None = None,
    eta: float = 1.0,
) -> RunReport:
    """Reid inferred-variance criterion for a two-mode squeezed vacuum at
    squeezing r, or swept over a range (lo, hi, step) of r values; give
    exactly one of ``r`` and ``sweep``."""
    t0 = time.perf_counter()
    if (r is None) == (sweep is None):
        raise InputError("give exactly one of r and sweep")
    witness_values = {}
    details = {}
    if sweep is None:
        r_value, var_x, var_p, product, steering = gaussian.reid_sweep([r], eta)[0]
        witness_values.update({"r": r_value, "var_x_inf": var_x, "var_p_inf": var_p, "product": product})
        details["steering"] = steering
    else:
        lo, hi, step = sweep
        if not (0.0 <= lo <= hi and step > 0):
            raise InputError(f"sweep must satisfy 0 <= lo <= hi with step > 0, got {sweep}")
        rows = [list(row) for row in gaussian.reid_sweep(_points(lo, hi, step, "sweep"), eta=eta)]
        details["csv_header"] = ["r", "var_x_inf", "var_p_inf", "product", "steering_flag"]
        details["csv_rows"] = rows
    inputs = {"r": None if r is None else float(r), "sweep": list(sweep) if sweep else None, "eta": eta}
    return _report("reid", inputs, [], witness_values, details, t0)


def cmd_check(path) -> RunReport:
    """Validate a scenario file and run the applicable checks: exactness of
    no-signalling, predictability scan, feasibility, and witnesses."""
    t0 = time.perf_counter()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None

    if isinstance(doc, dict) and "x_settings" in doc:
        return _check_box(path, doc, t0)
    if isinstance(doc, dict) and "dimA" in doc:
        return _check_quantum(path, doc, t0)
    raise InputError(
        f"{path}: unrecognized scenario schema; expected quantum fields "
        "(dimA, dimB, state, alice_povms) or box fields (x_settings, a_outcomes, ...)"
    )


def _check_box(path, doc, t0) -> RunReport:
    verdicts, witness_values, details = _box_checks(boxworld.load_box(doc))
    return _report("check", {"file": str(path)}, verdicts, witness_values, {**details, "schema": "box"}, t0)


def _check_quantum(path, doc, t0) -> RunReport:
    sc = scenario.load_scenario(doc)
    asm = scenario.assemblage_from_povms(sc["rho"], sc["alice"])
    ns = asm.no_signalling
    verdicts, witness_values, details = _quantum_checks(asm, sc["bob"])
    details.update(schema="quantum", no_signalling={"passed": ns.passed, "max_deviation": ns.max_deviation})
    inputs = {"file": str(path)}
    return _report("check", inputs, verdicts, witness_values, details, t0)


# ---------------------------------------------------------------------------
# argument parsing

def _parse_range(text: str, what: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"{what} must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"{what} must be numeric lo:hi:step, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise InputError(f"{what} must be finite lo:hi:step, got {text!r}")
    return lo, hi, step


def _points(lo: float, hi: float, step: float, what: str) -> list:
    """lo, lo + step, ... up to hi within half a step, each rounded to 12
    decimals; more than MAX_GRID_POINTS of them is an input error."""
    if (hi - lo) / step + 0.5 > MAX_GRID_POINTS:
        raise InputError(f"{what} {lo}:{hi}:{step} has more than {MAX_GRID_POINTS} points")
    return [float(round(v, 12)) for v in np.arange(lo, hi + step / 2, step)]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The steercert parser, built once per process: parsing leaves it
    unchanged, and each subcommand's ``run`` looks its ``cmd_*`` up when
    called."""
    parser = argparse.ArgumentParser(
        prog="steercert",
        description="Certify steering: LP feasibility of local models, correlation witnesses, and the Reid criterion.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="report.json", help="write the RunReport as JSON")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("singlet-cjwr", parents=[common], help="matched-Pauli witness + feasibility for the singlet")
    p.add_argument("--settings", type=int, choices=[2, 3], default=2)
    p.add_argument("--werner-p", type=float, default=None, help="replace the singlet by a Werner state of this weight")
    p.set_defaults(run=lambda a: cmd_singlet_cjwr(a.settings, a.werner_p))

    p = sub.add_parser("werner-scan", parents=[common], help="scan Werner weight: witness values, verdicts, threshold bracket")
    p.add_argument("--settings", type=int, choices=[2, 3], default=2)
    p.add_argument("--grid", default="0.5:0.9:0.05", help="p grid as lo:hi:step (default %(default)s)")
    p.add_argument("--bracket-tol", type=float, default=0.01, help="bisection halting width (default %(default)s)")
    p.add_argument("--witness-only", action="store_true", help="skip LPs; report the exact witness crossing 1/sqrt(m)")
    p.add_argument("--csv", metavar="table.csv", help="write the (p, F, verdict) table")
    p.set_defaults(run=lambda a: cmd_werner_scan(
        settings=a.settings, grid=_parse_range(a.grid, "--grid"),
        bracket_tol=a.bracket_tol, witness_only=a.witness_only,
    ))

    p = sub.add_parser("prbox", parents=[common], help="exact PR-box analysis: no-signalling, CHSH, local-model verdicts")
    p.set_defaults(run=lambda a: cmd_prbox())

    p = sub.add_parser("reid", parents=[common], help="Reid criterion for a two-mode squeezed vacuum")
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--r", type=float, help="squeezing parameter (>= 0)")
    point.add_argument("--sweep", help="sweep r over lo:hi:step instead of a single point")
    p.add_argument("--eta", type=float, default=1.0, help="symmetric loss transmissivity (default 1.0)")
    p.add_argument("--csv", metavar="table.csv", help="write the sweep table")
    p.set_defaults(run=lambda a: cmd_reid(a.r, _parse_range(a.sweep, "--sweep") if a.sweep else None, a.eta))

    p = sub.add_parser("check", parents=[common], help="validate a scenario file and run the applicable checks")
    p.add_argument("file", help="scenario JSON (quantum or box-world schema)")
    p.set_defaults(run=lambda a: cmd_check(a.file))

    return parser


def _print_summary(report: RunReport) -> None:
    for name, value in sorted(report.witness_values.items()):
        print(f"{name} = {value:.6f}" if isinstance(value, float) else f"{name} = {value}")
    for entry in report.verdicts:
        print(f"{entry['name']}: {entry['status']}")
    details = report.details
    if "violated" in details:
        print(f"witness violated: {'yes' if details['violated'] else 'no'}")
    if "steering" in details:
        print(f"steering: {'yes' if details['steering'] else 'no'}")
    if "certain_contexts" in details:
        print(f"certain contexts: {len(details['certain_contexts'])}")
    if "no_signalling" in details:
        ns = details["no_signalling"]
        print(f"no-signalling: {'pass' if ns['passed'] else 'FAIL'} (max deviation {ns['max_deviation']})")
    if "bracket" in details:
        print(f"threshold bracket: {details['bracket']}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are input errors here
        return 0 if not exc.code else 1
    try:
        report = args.run(args)
        csv_path = getattr(args, "csv", None)
        if csv_path:
            if "csv_rows" not in report.details:
                raise InputError("this invocation produced no table; nothing to write to --csv")
            write_csv(csv_path, report.details["csv_header"], report.details["csv_rows"])
        if args.out:
            report.save(args.out)
        _print_summary(report)
        print(f"done in {report.timing_ms:.0f} ms")
        return 0
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except SteercertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
