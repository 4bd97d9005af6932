"""Acceptance suite: end-to-end statistical and reproducibility criteria.

Each test prints a single ``criterion k: PASS/FAIL`` line with the measured
quantity, then asserts the stated bound. Statistical criteria use fixed seeds
so results are reproducible run to run.
"""

import json
import math

import numpy as np
import pytest
import scipy.stats

from dckrr import dnc, rates, simlab
from dckrr.cli import main as cli_main
from dckrr.inference import test_statistic as wald_test
from dckrr.solver import krr_fit, predict
from dckrr.spectra import (
    additive,
    check_prop31_ratio,
    check_tail_sum,
    eval_kernel_K,
    gram_R,
    gaussian_rkhs,
    periodic_sobolev,
    spectral_sums,
    thin_plate,
    truncation_level,
)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    """Let criterion lines bypass output capture so every run shows them."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(k: int, ok: bool, detail: str) -> None:
    line = f"criterion {k}: {'PASS' if ok else 'FAIL'} — {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}")
    else:
        print(line)


def _sweep(c, N, rho, reps, task, seed=0):
    cfg = simlab.SweepConfig(
        model="spline1d", c=c, N_list=(N,), rho_list=(rho,),
        replications=reps, lambda_task=task, base_seed=seed,
    )
    return simlab.run_sweep(cfg).cells[0]


def test_criterion_1_size_calibration():
    cell = _sweep(c=0.0, N=1024, rho=0.3, reps=500, task="testing")
    ok = 0.03 <= cell.reject_rate <= 0.08
    _report(1, ok, f"size = {cell.reject_rate:.4f}, target [0.03, 0.08]")
    assert ok


def test_criterion_2_power_moderate_rho():
    cell = _sweep(c=1.0, N=4096, rho=0.4, reps=200, task="testing")
    ok = cell.reject_rate >= 0.95
    _report(2, ok, f"power = {cell.reject_rate:.4f}, target >= 0.95")
    assert ok


def test_criterion_3_power_collapse_large_rho():
    cell = _sweep(c=1.0, N=4096, rho=0.75, reps=200, task="testing")
    ok = cell.reject_rate <= 0.3
    _report(3, ok, f"power = {cell.reject_rate:.4f}, target <= 0.3")
    assert ok


def test_criterion_4_mse_degradation():
    lo = _sweep(c=1.0, N=8192, rho=0.2, reps=50, task="estimation")
    hi = _sweep(c=1.0, N=8192, rho=0.75, reps=50, task="estimation")
    ratio = hi.mse_mean / lo.mse_mean
    ok = ratio >= 2.0
    _report(4, ok, f"mse ratio = {ratio:.2f}, target >= 2")
    assert ok


def test_criterion_5_estimation_rate_slope():
    Ns = (512, 1024, 2048, 4096, 8192)
    mses = [
        _sweep(c=1.0, N=N, rho=0.2, reps=50, task="estimation").mse_mean for N in Ns
    ]
    slope = float(np.polyfit(np.log(Ns), np.log(mses), 1)[0])
    ok = -0.95 <= slope <= -0.65
    _report(5, ok, f"log-log slope = {slope:.3f}, target [-0.95, -0.65]")
    assert ok


def test_criterion_6_null_distribution_ks():
    N, rho, reps = 2048, 0.3, 500
    s = max(1, math.floor(N**rho + 0.5))
    n = N // s
    lam = rates.prescribe("spline", 2, 1, n, "testing").lam
    spec = periodic_sobolev(2, M=truncation_level(2, lam))
    zs = []
    for r in range(reps):
        data = simlab.generate("spline1d", N, seed=r, c=0.0)
        part = dnc.partition(data, s, seed=r)
        est = dnc.fit_all(spec, data, part, lam, "truncated_feature")
        zs.append(wald_test(est, N=part.N_effective).z)
    ks = float(scipy.stats.kstest(zs, "norm").statistic)
    ok = ks < 0.08
    _report(6, ok, f"KS distance = {ks:.4f}, target < 0.08")
    assert ok


def test_criterion_7_solver_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_oracle, worst_paths = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(10, 51))
        spec = periodic_sobolev(2, M=256)
        xs = rng.uniform(size=n)
        ys = 0.6 * np.sin(1.5 * np.pi * xs) + rng.standard_normal(n)
        lam = 10.0 ** rng.uniform(-4, -2)
        sub = dnc.Dataset(xs=xs, ys=ys)
        fit = krr_fit(spec, sub, lam, "exact_gram")
        # explicit-inverse oracle for the augmented KKT system
        R = gram_R(spec, xs, xs)
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = R + n * lam * np.eye(n)
        A[:n, n] = A[n, :n] = 1.0
        sol = np.linalg.inv(A) @ np.concatenate([ys, [0.0]])
        yhat_oracle = sol[n] + R @ sol[:n]
        worst_oracle = max(worst_oracle, float(np.max(np.abs(predict(spec, fit, xs) - yhat_oracle))))
        fit2 = krr_fit(spec, sub, lam, "truncated_feature")
        grid = (np.arange(512) + 0.5) / 512
        rms = math.sqrt(float(np.mean((predict(spec, fit, grid) - predict(spec, fit2, grid)) ** 2)))
        worst_paths = max(worst_paths, rms)
    ok = worst_oracle < 1e-10 and worst_paths < 1e-4
    _report(7, ok, f"max oracle diff = {worst_oracle:.2e} (< 1e-10), max path RMS = {worst_paths:.2e} (< 1e-4)")
    assert ok


def test_criterion_8_spectral_properties():
    lam_grid = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    spline = periodic_sobolev(2, M=truncation_level(2, min(lam_grid)))
    ratios = check_prop31_ratio(spline, lam_grid)
    band_ok = bool(np.all(ratios >= 0.2) and np.all(ratios <= 1.0))
    all_le_one = True
    sups = {}
    for name, spec in (
        ("spline", spline),
        ("additive", additive(2, 2, M=512)),
        ("gaussian", gaussian_rkhs(1, M=64)),
        ("thin_plate", thin_plate(2, 2, M=4096)),
    ):
        r = check_prop31_ratio(spec, [1e-2, 1e-3])
        all_le_one = all_le_one and bool(np.all(r <= 1.0))
        sups[name] = check_tail_sum(spec)
    sup_ok = all(np.isfinite(v) for v in sups.values())
    lam0 = 1e-3
    h_inv = spectral_sums(spline, lam0).h_inv
    grid = (np.arange(256) + 0.5) / 256
    kmax = max(eval_kernel_K(spline, lam0, np.array([g]), np.array([g])) for g in grid)
    bound_ok = kmax <= 2.0 * h_inv
    ok = band_ok and all_le_one and sup_ok and bound_ok
    _report(
        8, ok,
        f"ratio band [{np.min(ratios):.3f}, {np.max(ratios):.3f}] in [0.2, 1.0]; "
        f"tail sups finite {sup_ok}; max K(x,x) = {kmax:.3f} <= 2*h_inv = {2 * h_inv:.3f}",
    )
    assert ok


def test_criterion_9_determinism_across_workers(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "model": "spline1d", "c": 1.0, "N_list": [256], "rho_list": [0.3],
        "replications": 8, "base_seed": 3,
    }))
    blobs = []
    for w in (1, 2, 8):
        out = tmp_path / f"w{w}"
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--workers", str(w)])
        assert rc == 0
        blobs.append((out / "sweep.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(9, ok, f"sweep.csv byte-identical across workers {{1, 2, 8}}: {ok}")
    assert ok


def test_criterion_10_additive_d1_reduction():
    spline = periodic_sobolev(2, M=64)
    addit = additive(2, 1, M=64)
    data = simlab.generate("spline1d", 512, seed=5, c=1.0)
    part = dnc.partition(data, s=4, seed=5)
    lam = rates.prescribe("spline", 2, 1, 128, "estimation").lam
    grid = (np.arange(512) + 0.5) / 512
    worst = 0.0
    for path in ("exact_gram", "truncated_feature"):
        e1 = dnc.fit_all(spline, data, part, lam, path)
        e2 = dnc.fit_all(addit, data, part, lam, path)
        worst = max(worst, float(np.max(np.abs(dnc.predict_bar(e1, grid) - dnc.predict_bar(e2, grid)))))
    rates_ok = True
    for task in rates.TASKS:
        r1 = rates.prescribe("spline", 2, 1, 4096, task)
        r2 = rates.prescribe("additive", 2, 1, 4096, task)
        rates_ok = rates_ok and r1.lam == r2.lam and r1.s_max == r2.s_max and r1.rate == r2.rate
    ok = worst < 1e-12 and rates_ok
    _report(10, ok, f"max fit diff = {worst:.2e} (< 1e-12); rates rows identical: {rates_ok}")
    assert ok


def test_criterion_11_xi_scaling_band():
    vals = {}
    for n in (128, 256, 512, 1024):
        N, s = 4 * n, 4
        lam = n ** -0.8
        spec = periodic_sobolev(2, M=truncation_level(2, lam))
        h = 1.0 / spectral_sums(spec, lam).h_inv
        xi_max = []
        for seed in range(50):
            data = simlab.generate("spline1d", N, seed=seed, c=0.0)
            part = dnc.partition(data, s, seed=seed)
            xi_max.append(float(np.max(dnc.xi_diagnostic(spec, data, part, lam))))
        vals[n] = float(np.median(xi_max)) * math.sqrt(n * h / math.log(N))
    spread = max(vals.values()) / min(vals.values())
    ok = spread <= 3.0
    _report(11, ok, f"scaled xi medians {vals}; max/min = {spread:.2f}, target <= 3")
    assert ok
