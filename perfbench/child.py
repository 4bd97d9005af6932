"""One benchmark process: set a workload up, then run its rounds.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS OUTDIR

``MODE`` is ``setup`` (set up, report, exit), ``measure`` (untraced rounds
for ``SECONDS``) or ``trace`` (the same rounds with every layer traced; with
``SECONDS`` 0 a single round). The process prints ``READY`` once ``dckrr``
is imported and the workload's config is validated, and one JSON line with
its results at the end. ``dckrr`` must be importable (``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time

import numpy as np

import workloads as wl

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


class SweepRounds:
    """Round ``r``: one ``dckrr sweep`` call on a generated config."""

    def __init__(self, workload: str, seed: int, out: str):
        from dckrr import cli, simlab

        self.cli, self.workload, self.seed, self.out = cli, workload, seed, out
        simlab.SweepConfig(**wl.sweep_fields(workload, seed, 0))  # validates

    def run(self, r: int):
        rdir = os.path.join(self.out, f"round_{r:04d}")
        os.makedirs(rdir)
        path = os.path.join(rdir, "config.json")
        with open(path, "w") as fh:
            json.dump(wl.cli_config(wl.sweep_fields(self.workload, self.seed, r)), fh)
        argv = ["sweep", "--config", path, "--out", rdir]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        return elapsed, {"code": code}


class GaussianRounds:
    """Round ``r``: replications of the README quick-start pipeline with
    ``gaussian_rkhs``; the grid MSE is taken against the benchmark's signal."""

    def __init__(self, workload: str, seed: int, out: str):
        from dckrr import dnc, inference, rates, simlab, spectra

        self.dnc, self.inference, self.simlab = dnc, inference, simlab
        self.workload, self.seed = workload, seed
        g = wl.GAUSS
        self.spec = spectra.gaussian_rkhs(1, g["scale"], M=g["M"])
        self.lam = rates.prescribe("gaussian", 0, 1, g["N"] // g["s"], "testing").lam
        self.grid = wl.grid(g["model"], g["grid_size"])
        self.truth = g["c"] * wl.signal(g["model"], self.grid)

    def run(self, r: int):
        g, dnc = wl.GAUSS, self.dnc
        first = wl.base_seed(self.seed, r, self.workload)
        reps = []
        t0 = time.perf_counter()
        for seed in range(first, first + wl.REPS_PER_ROUND[self.workload]):
            try:
                data = self.simlab.generate(g["model"], g["N"], seed, c=g["c"])
                part = dnc.partition(data, g["s"], seed)
                est = dnc.fit_all(self.spec, data, part, self.lam, "exact_gram", workers=1)
                mse = float(np.mean((dnc.predict_bar(est, self.grid) - self.truth) ** 2))
                report = self.inference.test_statistic(
                    est, N=part.N_effective, sigma2=g["sigma2"]
                )
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                reps.append({"seed": seed, "error": repr(exc)})
                continue
            reps.append({"seed": seed, "mse": mse, "reject": bool(report.reject)})
        elapsed = time.perf_counter() - t0
        return elapsed, {"reps": reps}


def run_rounds(rounds, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    done = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.capture = not done
        elapsed, info = rounds.run(len(done))
        done.append(dict(info, seconds=elapsed))
        if time.perf_counter() - start >= seconds:
            return done


def save_captures(tracer, path: str) -> None:
    """Write round 0's captured inputs and outputs, one record per
    replication (a replication starts at each ``simlab.generate`` call)."""
    reps, arrays = [], {}
    for name, bound, out in tracer.captures:
        a = bound.arguments
        if name == "simlab.generate":
            reps.append({"seed": int(a["seed"]), "predict_bar": 0})
            key = f"r{len(reps) - 1}"
            arrays[f"{key}_xs"], arrays[f"{key}_ys"] = out.xs, out.ys
            continue
        rec, key = reps[-1], f"r{len(reps) - 1}"
        if name == "dnc.partition":
            arrays[f"{key}_assign"] = out.assignment
        elif name == "dnc.fit_all":
            rec["lam"] = float(a["lam"])
        elif name == "dnc.predict_bar":
            j = rec["predict_bar"]
            arrays[f"{key}_pb{j}_X"], arrays[f"{key}_pb{j}_f"] = np.asarray(a["X"]), out
            rec["predict_bar"] = j + 1
        elif name == "simlab.mse_of_estimate":
            rec["mse"] = float(out)
        elif name == "inference.test_statistic":
            rec.update(T=out.statistic, z=out.z, reject=bool(out.reject),
                       critical=out.critical)
        elif name == "inference.estimate_sigma2":
            rec["sigma2"] = float(out)
    np.savez(path + ".npz", **arrays)
    with open(path + ".json", "w") as fh:
        json.dump(reps, fh)


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, out = argv
    seed, seconds = int(seed), float(seconds)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cls = SweepRounds if wl.is_sweep(workload) else GaussianRounds
    rounds = cls(workload, seed, out)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    done = run_rounds(rounds, seconds, tracer)
    result = {
        "rounds": done,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        tracer.write(os.path.join(out, "spans.jsonl"))
        save_captures(tracer, os.path.join(out, "captures"))
        result.update(
            totals=tracer.totals(), counts=dict(tracer.counts),
            missing=tracer.missing, bindings=len(tracer.bindings),
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
