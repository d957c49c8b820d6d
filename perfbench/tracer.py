"""Per-module spans recorded from outside the program.

The tracer swaps the public functions through which one module calls
the next (for instance ``engine.solve_feasibility_float``, the name the
engine looks up for every float LP) for timing wrappers, and restores
them on exit.  Wrapped calls nest: a layer's self time is its spans'
duration minus the part covered by wrapped calls inside them.  Counts
come from the verdicts the wrapped LP calls return (pivots, restarts,
undecided reason) and from the LP shapes they were given.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, layer): the entry points of each module as its
# callers reach them.  Calls inside a module stay in that module's span.
# Entries the program no longer has are skipped, so the benchmark keeps
# running when a module or a kernel is removed; that layer then reads 0.
TARGETS = [
    ("steercert.engine", "lhs_feasibility_qubit", "engine"),
    ("steercert.engine", "pv_feasibility", "engine"),
    ("steercert.engine", "joint_measurability", "engine"),
    ("steercert.engine", "lhs_feasibility_boxworld", "engine"),
    ("steercert.engine", "threshold_scan", "bisect"),
    ("steercert.engine", "solve_feasibility_float", "lp.float"),
    ("steercert.engine", "solve_feasibility_exact", "lp.exact"),
    ("steercert.lp._pivot_py", "run_phase1", "lp.kernel"),
    ("steercert.lp._pivot", "run_phase1", "lp.kernel"),
    ("steercert.engine", "mesh_pair", "polytope"),
    ("steercert.engine", "covering_angle", "polytope"),
    ("steercert.scenario", "werner_state", "scenario"),
    ("steercert.scenario", "pauli_povm", "scenario"),
    ("steercert.scenario", "noisy_pauli_povm", "scenario"),
    ("steercert.scenario", "pauli_observable", "scenario"),
    ("steercert.scenario", "assemblage_from_povms", "scenario"),
    ("steercert.witnesses", "correlators_from_assemblage", "witnesses"),
    ("steercert.witnesses", "cjwr", "witnesses"),
    ("steercert.boxworld", "load_box", "boxworld"),
    ("steercert.boxworld", "check_no_signalling_exact", "boxworld"),
    ("steercert.boxworld", "joint_from_assemblage", "boxworld"),
    ("steercert.boxworld", "chsh_value", "boxworld"),
    ("steercert.cli", "main", "cli"),
    ("steercert.report", "RunReport.save", "report"),
]


def _resolve(module: str, path: str):
    """(owner, attribute) for ``module.path``, or None if the program lacks it."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


LAYERS = ["lp.float", "lp.kernel", "lp.exact", "engine", "polytope", "bisect",
          "scenario", "witnesses", "boxworld", "report", "cli"]


def reason_key(reason) -> str:
    """'singular basis' -> 'singular_basis'; a missing reason -> 'unspecified'."""
    return (reason or "unspecified").replace(" ", "_").replace("-", "_")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.lp = defaultdict(list)  # layer -> [(rows, cols, status, meta)]
        self._children = []  # child time accumulated under each open span
        self._saved = []

    def __enter__(self):
        for module, path, layer in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._children.pop()
                self.self_s[layer] += elapsed - child
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += elapsed
            if layer in ("lp.float", "lp.exact"):
                problem = args[0] if args else kwargs["problem"]
                self.lp[layer].append((len(problem.b), problem.num_vars, result.status, result.meta))
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        """Per-layer figures; LP shapes are means over calls, tableau the largest."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for layer in ("lp.float", "lp.exact"):
            recs = self.lp[layer]
            n = max(len(recs), 1)
            out[f"{layer}.pivots"] = sum(meta.get("pivots", 0) for *_, meta in recs)
            out[f"{layer}.rows"] = sum(rec[0] for rec in recs) / n
            out[f"{layer}.cols"] = sum(rec[1] for rec in recs) / n
        recs = self.lp["lp.float"]
        out["lp.float.restarts"] = sum(meta.get("restarts", 0) for *_, meta in recs)
        # computed, not measured: 8 bytes per float64 entry of the (m+1) x (n+m+1) tableau
        out["lp.float.tableau_mb"] = max(
            (8 * (r + 1) * (c + r + 1) / 1e6 for r, c, _, _ in recs), default=0.0
        )
        undecided = [meta for _, _, status, meta in recs if status == "undecided"]
        out["lp.float.decided_ratio"] = 1.0 - len(undecided) / len(recs) if recs else 0.0
        out["lp.float.undecided"] = Counter(reason_key(meta.get("reason")) for meta in undecided)
        return out

