"""Unit tests for the solver module: oracle solves and structural identities."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dckrr.solver import MachineFit, Subsample, _solve_spd, krr_fit, predict, smoother_trace
from dckrr.spectra import (
    explicit_spectrum,
    feature_matrix,
    gaussian_rkhs,
    gram_R,
    periodic_sobolev,
    smoothing_spline,
    thin_plate,
)


def _sub(xs, ys):
    return Subsample(xs=np.asarray(xs, dtype=float), ys=np.asarray(ys, dtype=float), machine_id=0)


def _oracle_exact_gram(spec, xs, ys, lam):
    """Dense linear-algebra oracle for the exact-gram solve, for a null space
    that is the constant or nothing."""
    n = len(ys)
    R = gram_R(spec, xs, xs)
    assert spec.null_dim <= 1
    if spec.null_dim:
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = R + n * lam * np.eye(n)
        A[:n, n] = 1.0
        A[n, :n] = 1.0
        sol = np.linalg.solve(A, np.concatenate([ys, [0.0]]))
        return sol[:n], sol[n]
    alpha = np.linalg.solve(R + n * lam * np.eye(n), ys)
    return alpha, 0.0


def _oracle_truncated(spec, xs, ys, lam):
    """Dense ridge oracle for the truncated-feature solve, for a null space
    that is the constant or nothing."""
    n = len(ys)
    psi = feature_matrix(spec, xs) * np.sqrt(spec.eigenvalues)
    M = spec.M
    assert spec.null_dim <= 1
    if spec.null_dim:
        Z = np.column_stack([np.ones(n), psi])
        P = np.eye(M + 1)
        P[0, 0] = 0.0  # intercept is unpenalized
        coef = np.linalg.solve(Z.T @ Z + n * lam * P, Z.T @ ys)
        return coef[1:], coef[0]
    coef = np.linalg.solve(psi.T @ psi + n * lam * np.eye(M), psi.T @ ys)
    return coef, 0.0


class TestExactGram:
    def test_single_point_no_constant(self):
        # n=1 with R(x,x)=1 and lam=1: alpha = y / (R + n*lam) = y / 2
        spec = gaussian_rkhs(1, scale=1.0)
        fit = krr_fit(spec, _sub([0.3], [0.8]), lam=1.0, solve_path="exact_gram")
        assert fit.alpha[0] == pytest.approx(0.4, rel=1e-14)
        assert fit.intercept == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracle_with_intercept(self, seed):
        rng = np.random.default_rng(seed)
        n = 24
        spec = periodic_sobolev(2, M=64)
        xs = rng.uniform(size=n)
        ys = np.sin(3 * xs) + 0.1 * rng.standard_normal(n)
        lam = 10.0 ** rng.uniform(-5, -2)
        fit = krr_fit(spec, _sub(xs, ys), lam=lam, solve_path="exact_gram")
        alpha0, beta0 = _oracle_exact_gram(spec, xs, ys, lam)
        np.testing.assert_allclose(fit.alpha, alpha0, rtol=0, atol=1e-10)
        assert fit.intercept == pytest.approx(beta0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracle_no_constant(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 20
        spec = gaussian_rkhs(1, scale=2.0)
        xs = rng.uniform(size=n)
        ys = np.cos(2 * xs) + 0.1 * rng.standard_normal(n)
        lam = 10.0 ** rng.uniform(-4, -1)
        fit = krr_fit(spec, _sub(xs, ys), lam=lam, solve_path="exact_gram")
        alpha0, _ = _oracle_exact_gram(spec, xs, ys, lam)
        np.testing.assert_allclose(fit.alpha, alpha0, rtol=0, atol=1e-10)

    def test_residual_identity(self):
        # training residual y - fhat(x) equals n*lam*alpha exactly
        rng = np.random.default_rng(7)
        n = 30
        spec = periodic_sobolev(2, M=64)
        xs = rng.uniform(size=n)
        ys = rng.standard_normal(n)
        lam = 1e-3
        fit = krr_fit(spec, _sub(xs, ys), lam=lam, solve_path="exact_gram")
        yhat = predict(spec, fit, xs)
        np.testing.assert_allclose(ys - yhat, n * lam * fit.alpha, atol=1e-8)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(11)
        n = 10
        spec = periodic_sobolev(2, M=128)
        xs = (np.arange(n) + 0.5) / n  # well-separated points keep R_n well-conditioned
        ys = rng.standard_normal(n)
        fit = krr_fit(spec, _sub(xs, ys), lam=1e-10, solve_path="exact_gram")
        yhat = predict(spec, fit, xs)
        assert np.max(np.abs(ys - yhat)) < 1e-2


class TestTruncatedFeature:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 40
        spec = periodic_sobolev(2, M=32)
        xs = rng.uniform(size=n)
        ys = np.sin(2 * np.pi * xs) + 0.2 * rng.standard_normal(n)
        lam = 10.0 ** rng.uniform(-5, -2)
        fit = krr_fit(spec, _sub(xs, ys), lam=lam, solve_path="truncated_feature")
        theta0, beta0 = _oracle_truncated(spec, xs, ys, lam)
        np.testing.assert_allclose(fit.theta, theta0, rtol=0, atol=1e-9)
        assert fit.intercept == pytest.approx(beta0, abs=1e-9)

    def test_unsupported_families(self):
        sub = _sub([0.2, 0.8], [1.0, -1.0])
        with pytest.raises(ValueError):
            krr_fit(thin_plate(2, 1), sub, lam=0.1, solve_path="truncated_feature")

    def test_paths_agree_when_M_large(self):
        rng = np.random.default_rng(3)
        n = 64
        lam = 1e-3
        spec = periodic_sobolev(2, M=256)
        xs = rng.uniform(size=n)
        ys = 0.6 * np.sin(1.5 * np.pi * xs) + rng.standard_normal(n)
        sub = _sub(xs, ys)
        f1 = krr_fit(spec, sub, lam=lam, solve_path="exact_gram")
        f2 = krr_fit(spec, sub, lam=lam, solve_path="truncated_feature")
        grid = (np.arange(512) + 0.5) / 512
        rms = math.sqrt(float(np.mean((predict(spec, f1, grid) - predict(spec, f2, grid)) ** 2)))
        assert rms < 1e-4


class TestMercerCoefficients:
    def test_paths_give_same_coefficients(self):
        rng = np.random.default_rng(5)
        n = 48
        spec = periodic_sobolev(2, M=64)
        xs = rng.uniform(size=n)
        ys = np.sin(2 * np.pi * xs) + 0.3 * rng.standard_normal(n)
        sub = _sub(xs, ys)
        c_gram = krr_fit(spec, sub, lam=1e-3, solve_path="exact_gram").mercer_coeffs(spec)
        c_feat = krr_fit(spec, sub, lam=1e-3, solve_path="truncated_feature").mercer_coeffs(spec)
        np.testing.assert_allclose(c_gram, c_feat, atol=1e-10)

    def test_reconstructs_prediction(self):
        rng = np.random.default_rng(6)
        n = 32
        spec = periodic_sobolev(2, M=64)
        xs = rng.uniform(size=n)
        ys = np.cos(2 * np.pi * xs) + 0.1 * rng.standard_normal(n)
        fit = krr_fit(spec, _sub(xs, ys), lam=1e-3, solve_path="truncated_feature")
        c = fit.mercer_coeffs(spec)
        grid = rng.uniform(size=16)
        series = fit.intercept + feature_matrix(spec, grid) * np.sqrt(spec.eigenvalues) @ (
            c / np.sqrt(spec.eigenvalues)
        )
        np.testing.assert_allclose(series, predict(spec, fit, grid), atol=1e-10)


class TestLinearityAndValidation:
    @given(
        arrays(np.float64, 8, elements=st.floats(-5, 5)),
        arrays(np.float64, 8, elements=st.floats(-5, 5)),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_fit_linear_in_y(self, y1, y2, a, b):
        xs = (np.arange(8) + 0.5) / 8
        spec = periodic_sobolev(2, M=16)
        lam = 1e-2
        fa = krr_fit(spec, _sub(xs, y1), lam=lam, solve_path="exact_gram")
        fb = krr_fit(spec, _sub(xs, y2), lam=lam, solve_path="exact_gram")
        fc = krr_fit(spec, _sub(xs, a * y1 + b * y2), lam=lam, solve_path="exact_gram")
        np.testing.assert_allclose(fc.alpha, a * fa.alpha + b * fb.alpha, atol=1e-8)
        assert fc.intercept == pytest.approx(a * fa.intercept + b * fb.intercept, abs=1e-8)

    def test_input_validation(self):
        spec = periodic_sobolev(2, M=16)
        with pytest.raises(ValueError):
            Subsample(xs=np.array([0.1, 0.2]), ys=np.array([1.0]), machine_id=0)
        with pytest.raises(ValueError):
            krr_fit(spec, _sub([0.1], [1.0]), lam=-1.0, solve_path="exact_gram")
        with pytest.raises(ValueError):
            krr_fit(spec, _sub([0.1], [1.0]), lam=0.1, solve_path="bogus")


class TestCholesky:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_cho_factor_and_cho_solve(self, seed):
        # the same LAPACK calls as SciPy's wrappers, reading the lower triangle
        # of a gram that a gemm made, so not symmetric in its last bits
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((40, 60))
        A = (F * rng.uniform(size=60)) @ F.T + 1e-3 * np.eye(40)
        b = rng.standard_normal(40)
        factor = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        ref = scipy.linalg.cho_solve(factor, b, check_finite=False)
        assert np.array_equal(_solve_spd(A, b), ref)

    def test_not_positive_definite_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            _solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


class TestSmootherTrace:
    def test_bounds_and_limits(self):
        rng = np.random.default_rng(9)
        spec = periodic_sobolev(2, M=64)
        sub = _sub(rng.uniform(size=20), np.zeros(20))
        t_small = smoother_trace(spec, sub, 1e-9)
        t_big = smoother_trace(spec, sub, 1e6)
        assert 0.0 <= t_big < 1e-3
        assert t_big < t_small <= 20.0

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(10)
        spec = periodic_sobolev(2, M=64)
        xs = rng.uniform(size=15)
        lam = 1e-3
        eig = np.linalg.eigvalsh(gram_R(spec, xs, xs))
        eig = np.clip(eig, 0.0, None)
        oracle = float(np.sum(eig / (eig + 15 * lam)))
        assert smoother_trace(spec, _sub(xs, np.zeros(15)), lam) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("lam", [1e-9, 1e-3, 1e6])
    @pytest.mark.parametrize("make_spec, n", [
        (lambda: periodic_sobolev(2, M=64), 15),
        (lambda: smoothing_spline(2, M=32), 300),
    ], ids=["n<M", "n>M"])
    def test_both_sides_of_n_equals_M(self, make_spec, n, lam):
        # the eigenvalues of the smaller gram; the n x n gram of a rank-M basis
        # carries n - M roundoff eigenvalues, which at lam = 1e-9 move its
        # trace by about 1e-10 relative
        spec = make_spec()
        xs = np.random.default_rng(n).uniform(size=n)
        G = feature_matrix(spec, xs) * np.sqrt(spec.eigenvalues)
        gram = gram_R(spec, xs, xs) if n <= spec.M else G.T @ G
        eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        oracle = float(np.sum(eig / (eig + n * lam)))
        trace = smoother_trace(spec, _sub(xs, np.zeros(n)), lam)
        assert trace >= 0.0
        assert trace == pytest.approx(oracle, rel=1e-10, abs=0.0)  # the trace is ~1e-9 at lam = 1e6
