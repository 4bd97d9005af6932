"""Correctness checks, run outside the measured processes.

Two kinds:

* property checks on the program's outputs: ``sweep.csv`` bytes repeat for
  the same seed, ``manifest.json`` records the CSV's SHA-256, the ``reps``
  column equals the replications attempted, and the traced run reproduces
  the untraced one exactly;
* recomputations of round 0's replications apart from the program, each
  taking ``lambda`` from the program's output. Smoothing splines come from
  ``scipy.interpolate.make_smoothing_spline``; the additive and Gaussian
  fits solve their kernel systems directly with closed-form kernels.

Every recomputation is also compared once more after a perturbation of the
estimate (see :data:`PERTURB`) and must then fail, which shows the
tolerance is tight enough to notice it.

Nothing here imports ``dckrr``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np
from scipy.interpolate import make_smoothing_spline
from scipy.special import ndtri

import workloads as wl

# Tolerances, each at least five times the largest discrepancy seen over
# round 0 of seeds 0..39 (see README.md). "abs" is a maximum over points,
# "rel" a relative error.
TOL = {
    "spline": {"fbar_abs": 3e-5, "mse_rel": 1e-4, "T_rel": 1e-5},
    "additive": {"fbar_abs": 2e-5, "mse_rel": 3e-5, "T_rel": 2e-5, "sigma2_rel": 3e-5},
    "gaussian": {"fbar_abs": 1e-10, "mse_rel": 1e-10, "T_rel": 2e-7},
}

# The perturbed estimate is f_bar + eta * f_0 (machine 0's weight in the
# average raised by eta). For the pointwise check eta is 1e-3; for the
# quadratic MSE and T checks eta is 1e-2, signed so that the first-order
# change adds to the second-order one. The plug-in sigma^2 check instead
# shrinks machine 0's fit by 10%, which can only raise its residual sum.
PERTURB = {"fbar": 1e-3, "quadratic": 1e-2, "sigma2_shrink": 0.1}

ALPHA = 0.05
MERGE_GAP = 1e-5  # design points closer than this are merged in the spline reference


class Report:
    """Collects named pass/fail results with a one-line detail each."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def compare(self, name: str, got: float, want: float, tol: float, rel: bool,
              perturbed: float | None = None) -> None:
        """``got`` within ``tol`` of ``want``, and ``perturbed`` not."""
        def err(x):
            return abs(x - want) / (abs(want) if rel else 1.0)

        detail = f"err={err(got):.2e} tol={tol:.0e}"
        self.add(name, err(got) <= tol, detail)
        if perturbed is not None:
            self.add(name + ".perturbed_fails", err(perturbed) > tol,
                     f"perturbed err={err(perturbed):.2e}")

    @property
    def ok(self) -> bool:
        return bool(self.items) and all(ok for _, ok, _ in self.items)

    def failures(self) -> list[str]:
        return [f"{n} ({d})" for n, ok, d in self.items if not ok]


# ---------------------------------------------------------------- properties

def read_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one cell, got {len(rows)} rows")
    return rows[0]


def sweep_round_failed(workload: str, rdir: str, code: int, rep: Report) -> int:
    """Replications a sweep round lost; checks its CSV and manifest."""
    k = wl.REPS_PER_ROUND[workload]
    tag = os.path.basename(rdir)
    if code != 0:
        rep.add(f"{tag}.exit_code", code == 3, f"exit {code}")
        return k
    csv_path = os.path.join(rdir, "sweep.csv")
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(rdir, "manifest.json")) as fh:
        recorded = json.load(fh)["outputs"]["sweep.csv"]["sha256"]
    rep.add(f"{tag}.manifest_sha256", recorded == digest)
    reps = int(read_csv(csv_path)["reps"])
    rep.add(f"{tag}.reps_column", reps == k, f"reps={reps} attempted={k}")
    return k - reps


def sweep_properties(workload: str, dir_a: str, res_a: dict, dir_b: str, res_b: dict,
                     rep: Report) -> int:
    failed = 0
    for r, info in enumerate(res_a["rounds"]):
        failed += sweep_round_failed(workload, os.path.join(dir_a, f"round_{r:04d}"),
                                     info["code"], rep)
    for r, info in enumerate(res_b["rounds"]):
        sweep_round_failed(workload, os.path.join(dir_b, f"round_{r:04d}"), info["code"], rep)
    common = min(len(res_a["rounds"]), len(res_b["rounds"]))
    same = []
    for r in range(common):
        with open(os.path.join(dir_a, f"round_{r:04d}", "sweep.csv"), "rb") as fa, \
                open(os.path.join(dir_b, f"round_{r:04d}", "sweep.csv"), "rb") as fb:
            same.append(fa.read() == fb.read())
    rep.add("sweep_csv_identical_for_same_seed", all(same), f"{sum(same)}/{common} rounds")
    return failed


def traced_matches_cell(workload: str, dir_a: str, captured: list[dict], rep: Report) -> None:
    """Per-replication MSE and rejection of the traced round 0 fold to the
    untraced round 0's cell aggregates."""
    row = read_csv(os.path.join(dir_a, "round_0000", "sweep.csv"))
    mse = np.array([c["mse"] for c in captured]).mean()
    rej = np.array([1.0 if c["reject"] else 0.0 for c in captured]).mean()
    rep.add("traced_mse_equals_cell", format(float(mse), ".17g") == row["mse_mean"],
            f"{mse!r} vs {row['mse_mean']}")
    rep.add("traced_reject_equals_cell", format(float(rej), ".17g") == row["reject_rate"])


def gaussian_properties(res_a: dict, res_b: dict, rep: Report) -> int:
    failed = sum("error" in x for info in res_a["rounds"] for x in info["reps"])
    pairs = list(zip(res_a["rounds"], res_b["rounds"]))
    same = all(a["reps"] == b["reps"] for a, b in pairs)
    rep.add("traced_reps_equal_untraced", same, f"{len(pairs)} rounds compared")
    return failed


def check_decision(captured: list[dict], rep: Report) -> None:
    crit = ndtri(1.0 - ALPHA / 2.0)
    rep.add("critical_value", all(abs(c["critical"] - crit) < 1e-9 for c in captured))
    rep.add("reject_iff_abs_z_ge_critical",
            all(c["reject"] == (abs(c["z"]) >= c["critical"]) for c in captured))


# ---------------------------------------------------------- recomputations

def _signed(first_order: float) -> float:
    return PERTURB["quadratic"] * (1.0 if first_order >= 0 else -1.0)


def _check_points(tag: str, pts_fbar, pts_f0, captured_f, tol, rep: Report) -> None:
    """Compare f_bar at every point set the program evaluated."""
    err = max(float(np.max(np.abs(f - g))) for f, g in zip(pts_fbar, captured_f))
    pert = max(float(np.max(np.abs(f + PERTURB["fbar"] * f0 - g)))
               for f, f0, g in zip(pts_fbar, pts_f0, captured_f))
    rep.add(f"{tag}.fbar", err <= tol, f"max err={err:.2e} tol={tol:.0e}")
    rep.add(f"{tag}.fbar.perturbed_fails", pert > tol, f"perturbed err={pert:.2e}")


def _check_T(tag: str, t0: float, t1: float, t2: float, T_prog: float, tol, rep: Report):
    """``T(eta) = t0 + 2 eta t1 + eta^2 t2`` for ``f_bar + eta f_0``."""
    eta = _signed(t1)
    rep.compare(f"{tag}.T", t0, T_prog, tol, rel=True,
                perturbed=t0 + 2 * eta * t1 + eta * eta * t2)


def _mse(fbar, f0, truth):
    """MSE of f_bar and of its perturbation on the benchmark's grid."""
    e = fbar - truth
    eta = _signed(float(np.mean(e * f0)))
    return float(np.mean(e * e)), float(np.mean((e + eta * f0) ** 2))


class _Accum:
    """Running mean of the machines' values, with machine 0 kept apart."""

    def __init__(self):
        self.total, self.first, self.count = None, None, 0

    def add(self, vals):
        if self.total is None:
            self.total, self.first = np.array(vals, dtype=np.float64), np.array(vals)
        else:
            self.total += vals
        self.count += 1

    @property
    def mean(self):
        return self.total / self.count


# Smoothing splines: every machine's natural cubic spline, extended linearly.

def _spline_fits(xs, ys, assign, lam):
    fits = []
    for idx in assign:
        order = np.argsort(xs[idx])
        x, y = xs[idx][order], ys[idx][order]
        # SciPy's banded solve loses accuracy when two knots nearly coincide
        # (a pair 2e-8 apart moved its fit by 8e-4), so points closer than
        # MERGE_GAP are merged into one weighted point: (y1 - f)^2 + (y2 - f)^2
        # = 2 (ybar - f)^2 + const, and the merge moves the problem by O(gap).
        group = np.cumsum(np.r_[True, np.diff(x) > MERGE_GAP]) - 1
        w = np.bincount(group).astype(np.float64)
        xm, ym = np.bincount(group, x) / w, np.bincount(group, y) / w
        # make_smoothing_spline minimizes sum w (y - f)^2 + lam' int f''^2,
        # the program (1/n) sum (y - f)^2 + lam int f''^2: lam' = n lam.
        fits.append((make_smoothing_spline(xm, ym, w=w, lam=len(x) * lam), xm[0], xm[-1]))
    return fits


def _spline_eval(fit, X, nu=0):
    """A natural spline is linear outside its knots; BSpline would extend
    its end cubics, so evaluate at the clipped point and extend linearly."""
    spl, lo, hi = fit
    Xc = np.clip(X, lo, hi)
    if nu == 2:
        return np.where(X == Xc, spl(Xc, 2), 0.0)
    return spl(Xc) + spl(Xc, 1) * (X - Xc)


def _gauss_legendre(breaks, order):
    """Nodes and weights of ``order``-point Gauss-Legendre on every interval."""
    t, w = np.polynomial.legendre.leggauss(order)
    a, b = breaks[:-1, None], breaks[1:, None]
    return ((a + b) / 2 + (b - a) / 2 * t).ravel(), ((b - a) / 2 * w).ravel()


def check_spline(workload: str, captured: list[dict], caps, cell: dict, rep: Report) -> None:
    tol = TOL["spline"]
    lam = float(cell["lambda"])
    grid = wl.grid("spline1d")
    truth = wl.SWEEP_FIELDS[workload]["c"] * wl.signal("spline1d", grid)
    mses, mses_p = [], []
    for i, c in enumerate(captured):
        xs, ys, assign = caps[f"r{i}_xs"], caps[f"r{i}_ys"], caps[f"r{i}_assign"]
        fits = _spline_fits(xs, ys, assign, lam)
        # between consecutive knots of all machines each f_j is one cubic,
        # so 4-point Gauss-Legendre integrates f^2 and f''^2 exactly
        nodes, weights = _gauss_legendre(np.unique(np.r_[0.0, xs[assign].ravel(), 1.0]), 4)
        points = [caps[f"r{i}_pb{j}_X"] for j in range(c["predict_bar"])]
        acc = {k: _Accum() for k in ("grid", "v", "h", *range(len(points)))}
        for fit in fits:
            acc["grid"].add(_spline_eval(fit, grid))
            acc["v"].add(_spline_eval(fit, nodes))
            acc["h"].add(_spline_eval(fit, nodes, 2))
            for j, X in enumerate(points):
                acc[j].add(_spline_eval(fit, X))
        _check_points(f"rep{i}", [acc[j].mean for j in range(len(points))],
                      [acc[j].first for j in range(len(points))],
                      [caps[f"r{i}_pb{j}_f"] for j in range(len(points))], tol["fbar_abs"], rep)
        m, mp = _mse(acc["grid"].mean, acc["grid"].first, truth)
        mses.append(m)
        mses_p.append(mp)
        v, v0, h, h0 = acc["v"].mean, acc["v"].first, acc["h"].mean, acc["h"].first
        t0 = weights @ (v * v) + lam * (weights @ (h * h))
        t1 = weights @ (v * v0) + lam * (weights @ (h * h0))
        t2 = weights @ (v0 * v0) + lam * (weights @ (h0 * h0))
        _check_T(f"rep{i}", t0, t1, t2, c["T"], tol["T_rel"], rep)
    rep.compare("cell.mse", float(np.mean(mses)), float(cell["mse_mean"]), tol["mse_rel"],
                rel=True, perturbed=float(np.mean(mses_p)))


# Kernel fits: the additive periodic spline and the Gaussian kernel.

def _bernoulli4(t):
    return t**4 - 2 * t**3 + t**2 - 1.0 / 30


def _bernoulli8(t):
    return t**8 - 4 * t**7 + 14.0 / 3 * t**6 - 7.0 / 3 * t**4 + 2.0 / 3 * t**2 - 1.0 / 30


def additive_R(X, Y):
    """Periodic W^2 kernel per axis, sum_k 2 cos(2 pi k t)/(2 pi k)^4
    = -B4({t})/24, added over the axes."""
    return -sum(_bernoulli4((X[:, None, d] - Y[None, :, d]) % 1.0)
                for d in range(X.shape[1])) / 24.0


def additive_Q(X, Y):
    """``int R(x, u) R(u, y) du`` over the unit square: -B8({t})/8! per axis."""
    return -sum(_bernoulli8((X[:, None, d] - Y[None, :, d]) % 1.0)
                for d in range(X.shape[1])) / 40320.0


def gaussian_K(X, Y):
    return np.exp(-wl.GAUSS["scale"] * (X.reshape(-1, 1) - Y.reshape(1, -1)) ** 2)


def _kernel_fits(kernel, xs, ys, assign, lam, null: bool):
    """Per machine ``(anchors, alpha, beta)``: the KKT system with an
    unpenalized constant when ``null``, else ``(K + n lam I) alpha = y``."""
    fits = []
    for idx in assign:
        x, y, n = xs[idx], ys[idx], len(idx)
        A = kernel(x, x) + n * lam * np.eye(n)
        if null:
            kkt = np.block([[A, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
            sol = np.linalg.solve(kkt, np.r_[y, 0.0])
            fits.append((x, sol[:n], sol[n]))
        else:
            fits.append((x, np.linalg.solve(A, y), 0.0))
    return fits


def _kernel_eval(kernel, fit, X):
    x, alpha, beta = fit
    return beta + kernel(X, x) @ alpha


def _embedded_gram(fits, kernel, lam, v_kernel=None, nodes=None):
    """``E[j, l] = V(f_j, f_l) + lam <f_j, f_l>_H`` over machine pairs.

    ``V`` comes from ``v_kernel`` (the closed-form ``int R R``, plus the
    constants) or, without it, from quadrature at ``nodes``."""
    s = len(fits)
    E = np.empty((s, s))
    if v_kernel is None:
        vals = np.array([_kernel_eval(kernel, f, nodes[0]) for f in fits])
        V = (vals * nodes[1]) @ vals.T
    for j, (xj, aj, bj) in enumerate(fits):
        for l, (xl, al, bl) in enumerate(fits):
            h = aj @ kernel(xj, xl) @ al
            v = V[j, l] if v_kernel is None else aj @ v_kernel(xj, xl) @ al + bj * bl
            E[j, l] = v + lam * h
    return E


def check_kernel(workload: str, captured: list[dict], caps, cell: dict | None,
                 rep: Report) -> None:
    additive = workload == "additive-gram-plugin"
    tol = TOL["additive" if additive else "gaussian"]
    kernel = additive_R if additive else gaussian_K
    model = "additive2d" if additive else wl.GAUSS["model"]
    c = wl.SWEEP_FIELDS[workload]["c"] if additive else wl.GAUSS["c"]
    grid = wl.grid(model, None if additive else wl.GAUSS["grid_size"])
    truth = c * wl.signal(model, grid)
    lam = float(cell["lambda"]) if additive else captured[0]["lam"]
    mses, mses_p = [], []
    for i, cap in enumerate(captured):
        xs, ys, assign = caps[f"r{i}_xs"], caps[f"r{i}_ys"], caps[f"r{i}_assign"]
        fits = _kernel_fits(kernel, xs, ys, assign, lam, null=additive)
        s = len(fits)
        points = [caps[f"r{i}_pb{j}_X"] for j in range(cap["predict_bar"])]
        pts = [np.array([_kernel_eval(kernel, f, X) for f in fits]) for X in points]
        _check_points(f"rep{i}", [p.mean(axis=0) for p in pts], [p[0] for p in pts],
                      [caps[f"r{i}_pb{j}_f"] for j in range(len(points))], tol["fbar_abs"], rep)
        on_grid = np.array([_kernel_eval(kernel, f, grid) for f in fits])
        m, mp = _mse(on_grid.mean(axis=0), on_grid[0], truth)
        mses.append(m)
        mses_p.append(mp)
        if additive:
            E = _embedded_gram(fits, kernel, lam, v_kernel=additive_Q)
        else:
            E = _embedded_gram(fits, kernel, lam,
                               nodes=_gauss_legendre(np.array([0.0, 1.0]), 64))
        w = np.full(s, 1.0 / s)
        _check_T(f"rep{i}", w @ E @ w, (E @ w)[0], E[0, 0], cap["T"], tol["T_rel"], rep)
        if additive:
            check_sigma2(kernel, fits, xs, ys, assign, lam, cap["sigma2"], tol, f"rep{i}", rep)
    if additive:
        rep.compare("cell.mse", float(np.mean(mses)), float(cell["mse_mean"]), tol["mse_rel"],
                    rel=True, perturbed=float(np.mean(mses_p)))
    else:
        for i, cap in enumerate(captured):
            # the Gaussian workload's MSE is the benchmark's own arithmetic on
            # predict_bar, so compare it with the recomputed estimate's
            rep.compare(f"rep{i}.mse", mses[i], cap["mse"], tol["mse_rel"], rel=True,
                        perturbed=mses_p[i])


def check_sigma2(kernel, fits, xs, ys, assign, lam, sigma2_prog, tol, tag, rep):
    """Plug-in sigma^2 = sum RSS_j / sum (n - trace(R (R + n lam I)^-1) - 1)."""
    rss, dof, rss0_shrunk = 0.0, 0.0, 0.0
    for j, (idx, fit) in enumerate(zip(assign, fits)):
        x, y, n = xs[idx], ys[idx], len(idx)
        R = kernel(x, x)
        fitted = _kernel_eval(kernel, fit, x)
        rss += float((y - fitted) @ (y - fitted))
        if j == 0:
            shrunk = y - (1.0 - PERTURB["sigma2_shrink"]) * fitted
            rss0_shrunk = float(shrunk @ shrunk) - float((y - fitted) @ (y - fitted))
        eig = np.clip(np.linalg.eigvalsh(R), 0.0, None)
        dof += n - float(np.sum(eig / (eig + n * lam))) - 1.0
    rep.compare(f"{tag}.sigma2", rss / dof, sigma2_prog, tol["sigma2_rel"], rel=True,
                perturbed=(rss + rss0_shrunk) / dof)


# ------------------------------------------------------------------- entry

def load_captures(trace_dir: str):
    with open(os.path.join(trace_dir, "captures.json")) as fh:
        captured = json.load(fh)
    with np.load(os.path.join(trace_dir, "captures.npz")) as npz:
        caps = {k: npz[k] for k in npz.files}
    return captured, caps


def run_checks(workload: str, dir_a: str, res_a: dict, dir_b: str, res_b: dict):
    """All checks of one run; returns ``(report, failed replications)``."""
    rep = Report()
    captured, caps = load_captures(dir_b)
    rep.add("captured_round0", len(captured) == wl.REPS_PER_ROUND[workload],
            f"{len(captured)} replications")
    check_decision(captured, rep)
    if wl.is_sweep(workload):
        failed = sweep_properties(workload, dir_a, res_a, dir_b, res_b, rep)
        traced_matches_cell(workload, dir_a, captured, rep)
        cell = read_csv(os.path.join(dir_a, "round_0000", "sweep.csv"))
        if workload.startswith("spline"):
            check_spline(workload, captured, caps, cell, rep)
        else:
            check_kernel(workload, captured, caps, cell, rep)
    else:
        failed = gaussian_properties(res_a, res_b, rep)
        for cap, rec in zip(captured, res_b["rounds"][0]["reps"]):
            cap["mse"] = rec["mse"]
        check_kernel(workload, captured, caps, None, rep)
    return rep, failed


if __name__ == "__main__":  # re-run the checks of the last run of a workload
    import sys

    root = os.path.join(".perfbench_out", sys.argv[1])
    with open(os.path.join(root, "measure.json")) as fa, open(os.path.join(root, "trace.json")) as fb:
        res_a, res_b = json.load(fa), json.load(fb)
    report, _ = run_checks(sys.argv[1], os.path.join(root, "measure"), res_a,
                           os.path.join(root, "trace"), res_b)
    for name, ok, detail in report.items:
        print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}")
