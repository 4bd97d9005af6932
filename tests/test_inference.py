"""Unit tests for inference: norm accounting, the Wald test, and plug-in sigma^2."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from dckrr import rates, simlab, solver, spectra
from dckrr.dnc import Dataset, fit_all, partition, predict_bar
from dckrr.inference import (
    NormBreakdown,
    estimate_sigma2,
    norm_breakdown,
    test_statistic as wald_test,
)
from dckrr.solver import predict, smoother_trace
from dckrr.spectra import (
    additive,
    gaussian_rkhs,
    gram_R,
    periodic_sobolev,
    smoothing_spline,
    spectral_sums,
)


def _estimate(n=96, s=4, lam=1e-3, seed=0, solve_path="truncated_feature", c=0.6):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=n)
    ys = c * np.sin(1.5 * np.pi * xs) + rng.standard_normal(n)
    data = Dataset(xs=xs, ys=ys)
    spec = periodic_sobolev(2, M=64)
    part = partition(data, s=s, seed=seed)
    return spec, data, part, fit_all(spec, data, part, lam=lam, solve_path=solve_path)


def _machine_rows(data, part, j):
    """Machine ``j``'s rows of the sample, gathered from the partition."""
    idx = part.assignment[j]
    return Dataset(xs=data.xs[idx], ys=data.ys[idx])


class TestNormBreakdown:
    def test_mercer_route_matches_quadrature_route(self):
        spec, data, part, est = _estimate(solve_path="truncated_feature")
        lam = est.lam
        nb = norm_breakdown(est)
        # quadrature oracle for the L2 part
        grid = (np.arange(8192) + 0.5) / 8192

        fbar = predict_bar(est, grid)
        v_quad = float(np.mean(fbar**2))
        assert nb.v_part == pytest.approx(v_quad, rel=1e-6)
        assert nb.total == pytest.approx(nb.v_part + lam * nb.h_part, rel=1e-14)

    def test_mercer_route_with_linear_null_space(self):
        # V(f, f) counts both null-space coefficients: quadrature oracle
        rng = np.random.default_rng(8)
        xs = rng.uniform(size=120)
        data = Dataset(xs=xs, ys=2.0 * xs + np.sin(1.5 * np.pi * xs) + rng.standard_normal(120))
        spec = smoothing_spline(2, M=128)
        part = partition(data, s=3, seed=8)
        est = fit_all(spec, data, part, lam=1e-4, solve_path="exact_gram")

        x, w = np.polynomial.legendre.leggauss(400)
        fbar = predict_bar(est, 0.5 * (x + 1.0))
        nb = norm_breakdown(est)
        assert nb.v_part == pytest.approx(float(0.5 * w @ fbar**2), rel=1e-10)
        assert nb.v_part > float(np.sum(est.coeffs**2)) + est.beta[0] ** 2  # the slope counts

    @pytest.mark.parametrize("s,d", [(2, 1), (8, 1), (8, 2)], ids=["s2-d1", "s8-d1", "s8-d2"])
    def test_gram_route_gaussian(self, s, d):
        # the Mercer norms of a Gaussian exact-gram fit match its representer form
        rng = np.random.default_rng(4)
        n = 60
        xs = rng.uniform(size=n if d == 1 else (n, d))
        x0 = xs if d == 1 else xs[:, 0]
        ys = np.sin(2 * x0) + 0.2 * rng.standard_normal(n)
        data = Dataset(xs=xs, ys=ys)
        spec = gaussian_rkhs(d, scale=1.0)
        part = partition(data, s=s, seed=4)
        est = fit_all(spec, data, part, lam=1e-2, solve_path="exact_gram")
        nb = norm_breakdown(est)
        # oracle: H-part = (1/s^2) sum_{j,l} alpha_j' R(X_j, X_l) alpha_l
        assert len(est.fits) == s
        h = 0.0
        for j in range(s):
            for l in range(s):
                h += float(
                    est.fits[j].alpha
                    @ gram_R(spec, est.xs[j], est.xs[l])
                    @ est.fits[l].alpha
                )
        assert nb.h_part == pytest.approx(h / s**2, rel=1e-10)
        # oracle: V-part = Gauss-Legendre quadrature of predict_bar^2 on [0, 1]^d
        x, w = np.polynomial.legendre.leggauss(64)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        if d == 1:
            nodes, weights = x, w
        else:
            nodes = np.column_stack([g.ravel() for g in np.meshgrid(x, x, indexing="ij")])
            weights = np.outer(w, w).ravel()
        fbar = predict_bar(est, nodes)
        assert nb.v_part == pytest.approx(float(weights @ fbar**2), rel=1e-10)
        assert nb.v_part > 0

    def test_gaussian_route_holds_one_gram_block_at_a_time(self):
        # s=64 machines of n=64: the full 4096 x 4096 gram would take 134 MB
        # and one 4096 x 64 machine block 2 MB; the norms are read from the
        # averaged Mercer coefficients and form no gram at all
        rng = np.random.default_rng(5)
        xs = rng.uniform(size=4096)
        data = Dataset(xs=xs, ys=np.sin(1.5 * np.pi * xs) + rng.standard_normal(4096))
        spec = gaussian_rkhs(1)
        part = partition(data, s=64, seed=5)
        est = fit_all(spec, data, part, lam=5e-3, solve_path="exact_gram")
        tracemalloc.start()
        try:
            norm_breakdown(est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_zero_function_gives_zero_norms(self):
        spec = periodic_sobolev(2, M=16)
        xs = (np.arange(32) + 0.5) / 32
        data = Dataset(xs=xs, ys=np.zeros(32))
        part = partition(data, s=1, seed=0)
        est = fit_all(spec, data, part, lam=1e-2, solve_path="truncated_feature")
        nb = norm_breakdown(est)
        assert nb.v_part == pytest.approx(0.0, abs=1e-20)
        assert nb.h_part == pytest.approx(0.0, abs=1e-20)


class TestTestStatistic:
    def test_center_and_scale_recomputed(self):
        spec, data, part, est = _estimate()
        N = part.N_effective
        report = wald_test(est, N=N, sigma2=1.0, alpha=0.05)
        sums = spectral_sums(spec, est.lam)
        center = sums.h_inv / N
        scale = math.sqrt(2 * N * (N - 1) * sums.h_inv2) / N**2
        assert report.center == pytest.approx(center, rel=1e-12)
        assert report.scale == pytest.approx(scale, rel=1e-12)
        assert report.z == pytest.approx((report.statistic - center) / scale, rel=1e-12)
        assert report.reject == (abs(report.z) >= report.critical)

    @pytest.mark.parametrize("alpha, quantile", [
        (0.01, 2.5758293035489004), (0.05, 1.9599639845400538), (0.2, 1.2815515655446004)])
    def test_critical_is_the_two_sided_normal_quantile(self, alpha, quantile):
        report = wald_test(_estimate()[3], N=96, alpha=alpha)
        assert report.critical == float(scipy.special.ndtri(1.0 - alpha / 2.0))
        assert report.critical == pytest.approx(quantile, abs=1e-12)

    def test_statistic_is_squared_norm_with_constant(self):
        spec, data, part, est = _estimate()
        report = wald_test(est, N=part.N_effective)
        lam = est.lam
        manual = float(np.sum(est.beta**2)) + float(
            np.sum(est.coeffs**2 * (1 + lam / spec.eigenvalues))
        )
        assert report.statistic == pytest.approx(manual, rel=1e-12)

    def test_sigma2_scales_center_and_scale(self):
        spec, data, part, est = _estimate()
        r1 = wald_test(est, N=part.N_effective, sigma2=1.0)
        r2 = wald_test(est, N=part.N_effective, sigma2=2.0)
        assert r2.center == pytest.approx(2 * r1.center, rel=1e-12)
        assert r2.scale == pytest.approx(2 * r1.scale, rel=1e-12)

    def test_validation(self):
        spec, data, part, est = _estimate()
        with pytest.raises(ValueError):
            wald_test(est, N=0)
        with pytest.raises(ValueError):
            wald_test(est, N=part.N_effective, alpha=0.0)
        with pytest.raises(ValueError):
            wald_test(est, N=part.N_effective, sigma2=-1.0)

    def test_N_must_be_the_estimates_s_times_n(self):
        # N = 97 counts a row that the 4 machines of 24 points were not fitted on
        spec, data, part, est = _estimate(n=97)
        assert (part.N_effective, est.ys.size) == (96, 96)
        with pytest.raises(ValueError, match=r"N=97 .* s \* n = 96"):
            wald_test(est, N=97)

    def test_gaussian_null_is_centred(self):
        # the center sigma^2 h_inv / N uses the Gaussian's eigenvalues under
        # U[0,1]; with the spectrum of another design the null z drifts to -0.7
        spec = gaussian_rkhs(1, 1.0)
        lam = rates.prescribe("gaussian", 0, 1, 64, "testing").lam
        zs = []
        for seed in range(60):
            data = simlab.generate("spline1d", 1024, seed, c=0.0)
            part = partition(data, 16, seed)
            est = fit_all(spec, data, part, lam, "exact_gram")
            zs.append(wald_test(est, N=part.N_effective, sigma2=1.0).z)
        assert abs(np.mean(zs)) < 0.3


class TestEstimateSigma2:
    def test_near_unit_variance_on_pure_noise(self):
        spec, data, part, est = _estimate(n=1000, s=4, lam=1e-3, seed=3,
                                          solve_path="exact_gram", c=0.0)
        s2 = estimate_sigma2(est)
        assert s2 == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("spec", [periodic_sobolev(2, M=64), smoothing_spline(2, M=64)],
                             ids=["periodic", "spline"])
    @pytest.mark.parametrize("seed, lam", [(0, 1e-3), (1, 1e-4), (2, 1e-2)])
    def test_solve_paths_agree(self, spec, seed, lam):
        # both paths fit the same estimator, so either serves the plug-in
        rng = np.random.default_rng(seed)
        xs = rng.uniform(size=240)
        data = Dataset(xs=xs, ys=0.6 * np.sin(1.5 * np.pi * xs) + rng.standard_normal(240))
        part = partition(data, s=4, seed=seed)
        gram, feature = (
            estimate_sigma2(fit_all(spec, data, part, lam=lam, solve_path=path))
            for path in ("exact_gram", "truncated_feature")
        )
        assert feature == pytest.approx(gram, rel=1e-12)

    def test_nonpositive_degrees_of_freedom_are_a_numerical_failure(self):
        # machines of one point against the constant leave n - df - 1 < 0
        # each: a LinAlgError, which a sweep counts
        spec, data, part, est = _estimate(n=8, s=8)
        with pytest.raises(np.linalg.LinAlgError, match="nonpositive residual degrees of freedom"):
            estimate_sigma2(est)

    @pytest.mark.parametrize("path", ["exact_gram", "truncated_feature"])
    @pytest.mark.parametrize("make_spec, d", [
        (lambda: periodic_sobolev(2, M=32), 1),
        (lambda: smoothing_spline(2, M=32), 1),
        (lambda: additive(2, 2, M=40), 2),
        (lambda: gaussian_rkhs(1, 1.0, M=16), 1),
    ], ids=["periodic", "spline", "additive", "gaussian"])
    def test_equals_predict_and_smoother_trace(self, make_spec, d, path):
        # the gram formed once per machine gives the same bits as predicting
        # at the subsample and taking the smoother's trace separately
        spec, lam = make_spec(), 1e-3
        rng = np.random.default_rng(5)
        xs = rng.uniform(size=(60, d)) if d > 1 else rng.uniform(size=60)
        data = Dataset(xs=xs, ys=np.sin(3.0 * (xs if d == 1 else xs[:, 0]))
                       + rng.standard_normal(60))
        part = partition(data, s=4, seed=5)
        est = fit_all(spec, data, part, lam=lam, solve_path=path)
        rss, dof = 0.0, 0.0
        for j, fit in enumerate(est.fits):
            sub = _machine_rows(data, part, j)
            resid = sub.ys - predict(spec, fit, sub.xs)
            rss += float(resid @ resid)
            dof += sub.N - smoother_trace(spec, sub, lam) - float(spec.null_dim)
        assert estimate_sigma2(est) == rss / dof

    @pytest.mark.parametrize("path, per_machine", [("exact_gram", 0), ("truncated_feature", 1)])
    def test_evaluates_each_machines_basis_at_most_once(self, path, per_machine, monkeypatch):
        # an exact_gram fit reads its kept basis; a truncated_feature one
        # evaluates it once, for both the gram and the fitted values
        spec, data, part, est = _estimate(n=96, s=4, solve_path=path)
        lam = est.lam
        rss, dof = 0.0, 0.0
        for j, fit in enumerate(est.fits):
            sub = _machine_rows(data, part, j)
            resid = sub.ys - predict(spec, fit, sub.xs)
            rss += float(resid @ resid)
            dof += sub.N - smoother_trace(spec, sub, lam) - float(spec.null_dim)
        calls, real = [], solver.feature_matrix

        def counting(spec_, X):
            calls.append(np.shape(X))
            return real(spec_, X)

        for module in (spectra, solver):
            monkeypatch.setattr(module, "feature_matrix", counting)
        assert estimate_sigma2(est) == rss / dof
        assert calls == [(part.n,)] * (per_machine * part.s)

    def test_forms_no_n_by_n_gram(self):
        # n = 2000 points per machine: an n x n gram alone would take 32 MB
        spec, lam = smoothing_spline(2, M=32), 1e-3
        rng = np.random.default_rng(8)
        xs = rng.uniform(size=4000)
        data = Dataset(xs=xs, ys=0.6 * np.sin(1.5 * np.pi * xs) + rng.standard_normal(4000))
        part = partition(data, s=2, seed=8)
        est = fit_all(spec, data, part, lam=lam, solve_path="truncated_feature")
        tracemalloc.start()
        try:
            estimate_sigma2(est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

