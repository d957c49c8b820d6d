"""steercert benchmark: seeded workloads, checked verdicts, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload werner-bracket --seed 0 --seconds 32 --trace 0

Each invocation runs one workload in this process as a closed loop with
one client: a request is issued when the previous one has returned.  It
makes one pass over the seed's fixed job list, then repeats its units
(a scenario, a check, a bracket) in order while the next still fits in
``--seconds``; a request too long to repeat (werner-bracket's m=3
probe) is made once, before the repeats.  It checks every answer with
``checker.py``, prints a human-readable summary and, as the last line,
one JSON object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced passes and reports per-module figures per pass,
plus the tracing overhead (traced minus untraced pass time).

BLAS pools are pinned to one thread before numpy loads, so pivot counts
repeat exactly at a fixed seed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
P90_MIN_REQUESTS = 100

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_TIMES = ["lp.self_s", "engine.self_s", "trace.overhead_s"]
PER_LAYER_COUNTS = [
    "lp.float.calls", "lp.float.pivots", "lp.float.restarts", "lp.float.rows",
    "lp.float.cols", "lp.float.tableau_mb", "lp.float.decided_ratio",
    "lp.float.undecided.singular_basis", "lp.float.undecided.iteration_limit",
    "lp.float.undecided.no_admissible_pivot", "lp.float.undecided.negative_basic_value",
    "lp.float.undecided.model_failed_re_verification",
    "lp.float.undecided.certificate_failed_re_verification",
    "lp.float.undecided.unspecified",
    "lp.kernel.calls", "lp.exact.calls", "lp.exact.pivots", "lp.exact.rows", "lp.exact.cols",
    "engine.calls", "engine.lp_per_verdict", "polytope.calls", "bisect.probes",
    "undecided_share",
]
# tracer figures that are already per LP call (or a maximum), not per-run totals
PER_CALL = {"lp.float.rows", "lp.float.cols", "lp.exact.rows", "lp.exact.cols",
            "lp.float.tableau_mb", "lp.float.decided_ratio"}
PER_LAYER_UNITS = {
    "lp.float.tableau_mb": "MB", "lp.float.rows": "rows", "lp.float.cols": "cols",
    "lp.exact.rows": "rows", "lp.exact.cols": "cols", "lp.float.decided_ratio": "ratio",
    "engine.lp_per_verdict": "ratio", "undecided_share": "ratio",
}


def _load_program():
    """Import steercert from this checkout's src/, or exit without a result."""
    if not os.path.isdir(os.path.join(SRC, "steercert")):
        sys.exit(f"perfbench: no steercert sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import steercert

    if not os.path.abspath(steercert.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported steercert from {steercert.__file__}, not from {SRC}")
    return steercert


class Clock:
    """Times requests in a closed loop and tallies checked answers."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.engine_verdicts = 0
        self.failed = 0
        self.undecided = 0
        self.failures = []
        self.brackets = []  # (lo, hi, probes) per located threshold
        self.pass_counts = None  # (undecided, attempted) after the first pass

    def end_pass(self):
        if self.pass_counts is None:
            self.pass_counts = (self.undecided, self.attempted)

    def request(self, fn):
        from workloads import Errored

        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising request is a failed verdict, not a crash
            result = Errored(exc)
        self.latencies.append(time.perf_counter() - t0)
        return result

    def answer(self, ans):
        import checker

        try:
            status, failure = checker.check(ans)
        except Exception as exc:  # e.g. a malformed report: the verdict fails, the run goes on
            status, failure = "error", f"checker raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        self.engine_verdicts += ans.kind != "cjwr"
        if status == "undecided":
            self.undecided += 1
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{ans.kind}: {failure}")


def run_units(workload, seconds, clock) -> list:
    """One pass over the job list, then its units again while the next is expected to fit.

    The workload's once-per-run units come first and are not repeated;
    the repeats get ``seconds`` of their own, and a unit is expected to
    take as long as it did last time.  Returns each request's samples,
    in job-list order.
    """
    samples = {}

    def run(key, unit) -> float:
        first = len(clock.latencies)
        t0 = time.perf_counter()
        unit(clock)
        for i, t in enumerate(clock.latencies[first:]):
            samples.setdefault((key, i), []).append(t)
        return time.perf_counter() - t0

    for k, unit in enumerate(workload.once):
        run((0, k), unit)
    last = {}
    start = time.perf_counter()
    cycle = 0
    while True:
        for k, unit in enumerate(workload.units):
            if cycle and time.perf_counter() - start + last[k] > seconds:
                return [samples[key] for key in sorted(samples)]
            last[k] = run((1, k), unit)
        clock.end_pass()
        cycle += 1


def best_times(samples) -> list:
    """Each request's fastest sample.

    A unit repeats the same requests in the same order, so every sample
    of a request is the same work.  On a shared host, other tenants slow
    this process in bursts; the fastest sample of a request is the one
    such a burst hit least, as timeit's best-of-N is.
    """
    return [min(s) for s in samples]


def job_time(samples) -> float:
    """One pass's request time, each request at its best.

    The benchmark's own checking between requests is excluded.
    """
    return sum(best_times(samples))


def measure_setup(name, seed, workdir, probes) -> list:
    """Wall time of fresh processes that import steercert and make one warm-up call."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), workdir]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr}")
    return times


def environment(steercert) -> dict:
    import numpy
    import scipy
    from steercert import lp

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lp_backend": lp.BACKEND,
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "steercert": steercert.__version__,
        "machine": platform.machine(),
    }


def end_to_end(clock, samples, setup, name) -> tuple:
    lat_ms = [t * 1000.0 for t in clock.latencies]
    metrics = {
        "job_s": job_time(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p50 = 1000.0 * statistics.median(best_times(samples))
    counts = sorted(len(s) for s in samples)
    lines = [
        f"job_s            {metrics['job_s']:.4f} s   "
        f"(each of {len(samples)} requests at its best of {counts[0]}-{counts[-1]} samples)",
        f"request_ms.p50   {p50:.3f} ms  (median of {len(samples)} requests, each at its best)",
    ]
    if len(lat_ms) >= P90_MIN_REQUESTS:
        p90 = statistics.quantiles(lat_ms, n=10)[8]
        lines.append(f"request_ms.p90   {p90:.3f} ms  (n={len(lat_ms)} requests)")
    else:
        lines.append(f"request_ms.p90   n/a (n={len(lat_ms)} requests < {P90_MIN_REQUESTS})")
    undecided, attempted = clock.pass_counts
    lines += [
        f"undecided_share  {undecided / attempted:.4f}     "
        f"({undecided} of {attempted} verdicts in one pass)",
        f"failed_share     {clock.failed / clock.attempted:.4f}     "
        f"({clock.failed} of {clock.attempted} verdicts)",
    ]
    if clock.brackets:
        # every scan of a run repeats the same probes, so the first stands for all
        lines.append(f"bracket_width    {bracket_width(clock.brackets[:1]):.6f}   (bracket_tol 0.01)")
    else:
        lines.append(f"bracket_width    n/a (no bracket in {name})")
    lines += [
        f"setup_s          {metrics['setup_s']:.4f} s   (median of {len(setup)} fresh processes)",
        f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MiB",
    ]
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, lines


def bracket_width(brackets) -> float:
    """Sum of hi - lo over the brackets; a side never certified counts as the scan end."""
    return sum((1.0 if hi is None else hi) - (0.0 if lo is None else lo) for lo, hi, _ in brackets)


def per_layer(workload, seconds, clock) -> tuple:
    """Alternate untraced and traced passes; per-module figures are per traced pass."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        first = len(clock.latencies)
        workload.run_pass(clock)
        plain.append(clock.latencies[first:])
        first = len(clock.latencies)
        with tracer:
            workload.run_pass(clock)
        traced.append(clock.latencies[first:])
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    n = len(traced)
    raw = tracer.metrics()
    verdicts = clock.engine_verdicts / (2 * n)
    lp_calls = raw["lp.float.calls"] + raw["lp.exact.calls"]
    undecided = raw.pop("lp.float.undecided")
    table = {k: v if k in PER_CALL else v / n for k, v in raw.items()}
    for reason, count in undecided.items():
        table[f"lp.float.undecided.{reason}"] = count / n
    table["lp.self_s"] = table["lp.float.self_s"] + table["lp.kernel.self_s"] + table["lp.exact.self_s"]
    table["engine.lp_per_verdict"] = lp_calls / n / verdicts if verdicts else 0.0
    table["bisect.probes"] = sum(p for *_, p in clock.brackets) / (2 * n)
    table["undecided_share"] = clock.undecided / clock.attempted
    table["job_s.untraced"] = job_time(zip(*plain))
    table["job_s.traced"] = job_time(zip(*traced))
    table["trace.overhead_s"] = table["job_s.traced"] - table["job_s.untraced"]
    metrics = {}
    for name in PER_LAYER_TIMES:
        metrics[name] = {"value": table[name], "unit": "s"}
    for name in PER_LAYER_COUNTS:
        metrics[name] = {"value": table.get(name, 0), "unit": PER_LAYER_UNITS.get(name, "count")}
    lines = [f"per pass, {n} traced and {n} untraced passes:"]
    lines += [f"  {k:<52} {v:.6g}" for k, v in sorted(table.items())]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["werner-bracket", "qubit-verdicts", "box-exact"])
    parser.add_argument("--seed", type=int, default=0, help="orders the workload's fixed job list")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    steercert = _load_program()
    import workloads

    env = environment(steercert)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as workdir:
        workload = workloads.make(args.workload, args.seed, workdir)
        workload.warm_up()
        clock = Clock()
        if args.trace:
            metrics, lines = per_layer(workload, args.seconds, clock)
        else:
            # set-up samples on both sides of the measurement, so that one
            # burst of machine noise does not decide their median
            setup = measure_setup(args.workload, args.seed, workdir, SETUP_PROBES // 2)
            samples = run_units(workload, args.seconds, clock)
            setup += measure_setup(args.workload, args.seed, workdir, SETUP_PROBES - SETUP_PROBES // 2)
            metrics, lines = end_to_end(clock, samples, setup, args.workload)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for failure in clock.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": clock.failed == 0,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
