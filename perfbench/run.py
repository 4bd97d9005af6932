"""Benchmark of dckrr: replications per second, set-up time and peak memory
of one workload, or with ``--trace 1`` the time spent in each module.

    python3 perfbench/run.py --workload spline-s512 --seed 0 --seconds 18 --trace 0

Run it from the repository root; it imports ``dckrr`` from ``src``. Each run
starts fresh processes (see ``child.py``): a few that only set up, one
measured untraced run of whole rounds for ``--seconds``, and one traced run
(a single round, or ``--seconds`` of rounds with ``--trace 1``). The checks
in ``checks.py`` then run in this process. The last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

OUT = ".perfbench_out"
SETUP_SAMPLES = 5  # set-up is the median over this many fresh processes
CHILD_GRACE = 60.0  # seconds a child may run past --seconds

# (metric, unit, functions summed, field): per replication of the traced run.
# "self" is self time, "total" inclusive time, "calls" and the counters are counts.
PER_LAYER = (
    ("dnc.predict_bar.self_ms", "ms", ("dnc.predict_bar",), "self"),
    ("solver.predict.self_ms", "ms", ("solver.predict",), "self"),
    ("solver.predict.calls", "count", ("solver.predict",), "calls"),
    ("solver.krr_fit.self_ms", "ms", ("solver.krr_fit",), "self"),
    ("solver.krr_fit.calls", "count", ("solver.krr_fit",), "calls"),
    ("solver.krr_fit.system_rows", "count", ("solver.krr_fit",), "system_rows"),
    ("dnc.fit_all.self_ms", "ms", ("dnc.fit_all",), "self"),
    ("dnc.partition.ms", "ms", ("dnc.partition",), "total"),
    ("spectra.feature_matrix.ms", "ms", ("spectra.feature_matrix",), "total"),
    ("spectra.feature_matrix.calls", "count", ("spectra.feature_matrix",), "calls"),
    ("spectra.feature_matrix.values", "count", ("spectra.feature_matrix",), "values"),
    ("spectra.null_basis.ms", "ms", ("spectra.null_basis",), "total"),
    ("spectra.gram_R.self_ms", "ms", ("spectra.gram_R",), "self"),
    ("spectra.gram_R.calls", "count", ("spectra.gram_R",), "calls"),
    ("spectra.gram_R.entries", "count", ("spectra.gram_R",), "entries"),
    ("inference.norm_breakdown.self_ms", "ms", ("inference.norm_breakdown",), "self"),
    ("inference.test_statistic.self_ms", "ms", ("inference.test_statistic",), "self"),
    ("inference.estimate_sigma2.self_ms", "ms", ("inference.estimate_sigma2",), "self"),
    ("solver.smoother_trace.ms", "ms", ("solver.smoother_trace",), "total"),
    ("simlab.generate.ms", "ms", ("simlab.generate",), "total"),
    ("simlab.mse_of_estimate.self_ms", "ms", ("simlab.mse_of_estimate",), "self"),
    ("simlab.run_sweep.self_ms", "ms", ("simlab.run_sweep",), "self"),
    ("cli.cmd_sweep.self_ms", "ms", ("cli.cmd_sweep",), "self"),
    ("rates.prescribe.ms", "ms", ("rates.prescribe",), "total"),
    ("spectra.truncation.ms", "ms",
     ("spectra.smoothing_spline_level", "spectra.truncation_level"), "total"),
)


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float, out: str, env: dict):
    """Run one child; returns (seconds until it was set up, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed),
           str(seconds), out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=seconds + CHILD_GRACE)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} process failed (exit {proc.returncode})")
    return ready, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def round_rates(result: dict, workload: str) -> list[float]:
    k = wl.REPS_PER_ROUND[workload]
    return [k / r["seconds"] for r in result["rounds"]]


def per_layer(res_b: dict, workload: str) -> dict[str, dict]:
    reps = len(res_b["rounds"]) * wl.REPS_PER_ROUND[workload]
    totals, counts = res_b["totals"], res_b["counts"]

    def value(fn: str, field: str) -> float:
        if field in ("self", "total"):
            return 1e3 * totals.get(fn, {}).get(field, 0.0)
        if field == "calls":
            return totals.get(fn, {}).get("calls", 0)
        return counts.get(f"{fn}.{field}", 0)

    return {name: {"value": sum(value(fn, field) for fn in fns) / reps, "unit": unit}
            for name, unit, fns, field in PER_LAYER}


def describe_trace(res_a: dict, res_b: dict, workload: str) -> tuple[list[str], float]:
    """Text lines on the traced run and its overhead in percent."""
    reps = len(res_b["rounds"]) * wl.REPS_PER_ROUND[workload]
    untraced = statistics.median(round_rates(res_a, workload))
    traced = statistics.median(round_rates(res_b, workload))
    overhead = 100.0 * (untraced - traced) / untraced
    wall = 1e3 * sum(r["seconds"] for r in res_b["rounds"]) / reps
    inside = 1e3 * res_b["totals"]["<top>"]["total"] / reps
    lines = [
        f"trace: {reps} replications, {res_b['bindings']} bindings wrapped, "
        f"missing names: {res_b['missing'] or 'none'}",
        f"trace: {traced:.4g} reps/s traced vs {untraced:.4g} untraced, "
        f"overhead {overhead:.1f}%",
        f"trace: {wall:.1f} ms per replication = {inside:.1f} ms in traced functions "
        f"(sum of self times) + {wall - inside:.1f} ms outside them",
    ]
    rows = sorted(((v["self"], n, v) for n, v in res_b["totals"].items()
                   if n != "<top>" and v["calls"]), reverse=True)
    for self_s, name, v in rows:
        lines.append(f"trace:   {name:34s} {v['calls'] / reps:10.2f} calls "
                     f"{1e3 * self_s / reps:10.3f} self ms {1e3 * v['total'] / reps:10.3f} ms")
    return lines, overhead


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dckrr", "__init__.py")):
        print("run from the repository root: src/dckrr not found", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**40 or args.seconds < 0:
        print("--seed must lie in [0, 2^40) and --seconds be >= 0", file=sys.stderr)
        return 2

    from checks import run_checks  # numpy and scipy: after the cheap checks above

    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    dir_a, dir_b, dir_s = (os.path.join(out, d) for d in ("measure", "trace", "setup"))
    for d in (dir_a, dir_b, dir_s):
        os.makedirs(d)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)

    def setup_only():
        return spawn("setup", args.workload, args.seed, 0, dir_s, env)[0]

    # The host's speed drifts over tens of seconds, so the set-up samples are
    # taken before and after the other processes, not all at once.
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    ready, res_a = spawn("measure", args.workload, args.seed, args.seconds, dir_a, env)
    setups.append(ready)
    _, res_b = spawn("trace", args.workload, args.seed, args.seconds if args.trace else 0,
                     dir_b, env)
    setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    for name, res in (("measure", res_a), ("trace", res_b)):
        with open(os.path.join(out, f"{name}.json"), "w") as fh:
            json.dump(res, fh)

    report, failed = run_checks(args.workload, dir_a, res_a, dir_b, res_b)
    attempted = len(res_a["rounds"]) * wl.REPS_PER_ROUND[args.workload]
    rates = round_rates(res_a, args.workload)
    print(f"workload {args.workload} seed {args.seed}: {len(rates)} rounds, "
          f"{attempted} replications attempted, {failed} failed")
    print(f"blas threads observed: {res_a['blas_threads']}")
    print(f"setup seconds: {[round(x, 4) for x in setups]}")
    print(f"round rates (reps/s): {[round(x, 4) for x in rates]}")
    print(f"checks: {sum(ok for _, ok, _ in report.items)}/{len(report.items)} passed"
          + "".join(f"\n  FAILED {f}" for f in report.failures()))

    if args.trace:
        lines, overhead = describe_trace(res_a, res_b, args.workload)
        print("\n".join(lines))
        metrics = per_layer(res_b, args.workload)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "reps_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": res_a["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
        }
    print(json.dumps({"correct": report.ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
