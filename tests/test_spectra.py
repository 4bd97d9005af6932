"""Unit tests for the spectra module, oracles first."""

import itertools
import math
import pickle
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from dckrr.spectra import (
    FAMILIES,
    GAUSS_FLOOR,
    M_CAP,
    M_DEFAULT,
    Spectrum,
    TruncationError,
    additive,
    check_prop31_ratio,
    check_tail_sum,
    eval_kernel_K,
    feature_matrix,
    gaussian_rkhs,
    gram_R,
    null_basis,
    periodic_sobolev,
    smoothing_spline,
    smoothing_spline_level,
    spectral_sums,
    spectrum_for,
    thin_plate,
    truncation_level,
)
from dckrr import spectra
from dckrr.spectra import _beam_roots, _gaussian_kernel, _periodic_phi

RNG = np.random.default_rng(1234)


def explicit_spectrum(eigenvalues) -> Spectrum:
    """An eigenvalue-only spectrum with no null space and no tail, for sums
    and regularity checks that can be computed by hand."""
    return Spectrum(family="explicit", m=0, d=1,
                    eigenvalues=np.asarray(eigenvalues, dtype=np.float64), null_dim=0,
                    tail=0.0, sup_sq=None, basis=None)


class TestEigenvalueLaws:
    def test_periodic_pairs(self):
        spec = periodic_sobolev(2, M=8)
        mu = spec.eigenvalues
        # oracle: (2*pi*k)^(-4), each value shared by the sin/cos pair
        expected = [(2 * math.pi * k) ** -4 for k in (1, 1, 2, 2, 3, 3, 4, 4)]
        np.testing.assert_allclose(mu, expected, rtol=1e-15)

    def test_nonincreasing_positive(self):
        for spec in (
            periodic_sobolev(1, M=32),
            periodic_sobolev(3, M=32),
            additive(2, 2, M=32),
            gaussian_rkhs(1, 1.0, M=32),
            thin_plate(2, 2, M=32),
        ):
            mu = spec.eigenvalues
            assert np.all(mu > 0)
            assert np.all(np.diff(mu) <= 0)

    def test_gaussian_leading_eigenvalues(self):
        # exp(-(x - y)^2) under U[0,1]: the Nystrom eigenvalues, a cap that
        # keeps a prefix of them, and a trace of integral K(x, x) dx = 1
        spec = gaussian_rkhs(1, 1.0)
        np.testing.assert_allclose(spec.eigenvalues[:4], [0.8648, 0.1262, 8.56e-3, 3.69e-4],
                                   rtol=5e-4)
        assert 0.0 <= 1.0 - np.sum(spec.eigenvalues) < 1e-13
        assert np.array_equal(gaussian_rkhs(1, 1.0, M=4).eigenvalues, spec.eigenvalues[:4])
        with pytest.raises(TruncationError):
            spectral_sums(gaussian_rkhs(1, 1.0, M=3), 1e-3)  # discarded mass 1.2e-5
        # d = 2: the products of the 1-D pairs, largest first
        mu = spec.eigenvalues
        lead = gaussian_rkhs(2, 1.0).eigenvalues[:4]
        np.testing.assert_allclose(lead, [mu[0] ** 2, mu[0] * mu[1], mu[0] * mu[1], mu[1] ** 2],
                                   rtol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("scale", [0.4, 1.0, 2.7])
    def test_gaussian_products_match_the_full_product(self, d, scale):
        # the pruned product search keeps what sorting every product would keep
        mu1 = gaussian_rkhs(1, scale).eigenvalues
        index = np.array(list(itertools.product(range(mu1.shape[0]), repeat=d)))
        mu = np.prod(mu1[index], axis=1)
        order = np.argsort(-mu, kind="stable")
        order = order[mu[order] > GAUSS_FLOOR * mu1[0] ** d]
        for M in (1, 7, 64, M_CAP):
            keep = order[:M]
            assert np.array_equal(gaussian_rkhs(d, scale, M=M).eigenvalues, mu[keep])
            x = RNG.uniform(size=(5, d))
            phi1 = feature_matrix(gaussian_rkhs(1, scale), x.reshape(-1)).reshape(5, d, -1)
            ref = np.prod([phi1[:, k, index[keep, k]] for k in range(d)], axis=0)
            np.testing.assert_allclose(feature_matrix(gaussian_rkhs(d, scale, M=M), x), ref,
                                       rtol=1e-13, atol=0)

    def test_thin_plate_law(self):
        spec = thin_plate(2, 2, M=5)
        np.testing.assert_allclose(
            spec.eigenvalues, [nu ** -2.0 for nu in range(1, 6)], rtol=1e-15
        )

    def test_additive_interleaves_components_fastest(self):
        spec = additive(2, 2, M=8)
        # index j = (p-1)*d + k: eigenvalue depends only on p, so each of the
        # M/d per-component levels repeats d times
        mu_p = [(2 * math.pi * math.ceil(p / 2)) ** -4 for p in (1, 2, 3, 4)]
        np.testing.assert_allclose(spec.eigenvalues, np.repeat(mu_p, 2), rtol=1e-15)

    def test_additive_d1_equals_spline_arrays(self):
        a = additive(2, 1, M=64)
        s = periodic_sobolev(2, M=64)
        assert np.array_equal(a.eigenvalues, s.eigenvalues)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            periodic_sobolev(0)
        with pytest.raises(ValueError):
            periodic_sobolev(2, M=7)  # odd
        with pytest.raises(ValueError):
            additive(2, 2, M=10)  # not a multiple of 2d
        with pytest.raises(ValueError, match="m must be a positive integer"):
            additive(0, 2, 8)  # would be eigenvalues of 1 with a negative tail
        with pytest.raises(ValueError):
            thin_plate(1, 2)  # 2m <= d
        with pytest.raises(TruncationError):
            periodic_sobolev(2, M=2 * 16384)


class TestEigenfunctions:
    def test_periodic_values(self):
        spec = periodic_sobolev(2, M=8)
        x = np.array([0.3])
        root2 = math.sqrt(2)
        assert null_basis(spec, x)[0] == pytest.approx([1.0])  # the constant
        phi = feature_matrix(spec, x)[0]
        assert phi[0] == pytest.approx(root2 * math.sin(2 * math.pi * 0.3))
        assert phi[1] == pytest.approx(root2 * math.cos(2 * math.pi * 0.3))
        assert phi[2] == pytest.approx(root2 * math.sin(4 * math.pi * 0.3))

    def test_additive_index_map(self):
        spec = additive(2, 2, M=8)
        pts = np.array([[0.3, 0.7]])
        root2 = math.sqrt(2)
        # column p*d + k is periodic column p of coordinate k: sin(x1), sin(x2), cos(x1)
        phi = feature_matrix(spec, pts)[0]
        assert phi[0] == pytest.approx(root2 * math.sin(2 * math.pi * 0.3))
        assert phi[1] == pytest.approx(root2 * math.sin(2 * math.pi * 0.7))
        assert phi[2] == pytest.approx(root2 * math.cos(2 * math.pi * 0.3))

    def test_orthonormality_quadrature(self):
        spec = periodic_sobolev(2, M=256)
        grid = (np.arange(4096) + 0.5) / 4096
        phi = feature_matrix(spec, grid)
        G = phi.T @ phi / 4096
        assert np.max(np.abs(G - np.eye(256))) < 1e-3

    @pytest.mark.parametrize("spec", [periodic_sobolev(2, M=64), additive(2, 2, M=64)],
                             ids=["periodic", "additive"])
    def test_periodic_features_equal_the_where_form(self, spec):
        # sin and cos are each computed only for their own columns; the
        # values equal both full matrices merged by np.where
        def where_form(p, x):
            ang = 2.0 * np.pi * np.multiply.outer(x, (p + 1) // 2)
            return math.sqrt(2.0) * np.where(p % 2 == 1, np.sin(ang), np.cos(ang))

        pts = RNG.uniform(size=(257, spec.d))
        ref = np.empty((257, spec.M))
        for k in range(spec.d):
            ref[:, k :: spec.d] = where_form(np.arange(1, spec.M // spec.d + 1), pts[:, k])
        X = pts[:, 0] if spec.d == 1 else pts
        assert np.array_equal(feature_matrix(spec, X), ref)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("scale", [0.4, 1.0, 2.7])
    def test_gaussian_v_orthonormal(self, d, scale):
        # V-orthonormal under an independent 400-node Gauss-Legendre rule, to
        # the accuracy of the eigenvectors: eps * mu_1 / mu for the smaller pair
        x, w = np.polynomial.legendre.leggauss(400)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        if d == 2:
            x = np.column_stack([g.ravel() for g in np.meshgrid(x, x, indexing="ij")])
            w = np.outer(w, w).ravel()
        spec = gaussian_rkhs(d, scale)
        phi = feature_matrix(spec, x)
        G = (phi * w[:, None]).T @ phi
        mu = spec.eigenvalues
        tol = 1e3 * np.finfo(np.float64).eps * mu[0] / np.minimum.outer(mu, mu)
        assert np.all(np.abs(G - np.eye(spec.M)) <= tol)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("scale", [0.4, 0.7, 1.0, 1.5, 2.0, 2.7])
    def test_gaussian_kernel_rebuilt_from_its_pairs(self, d, scale):
        # R = sum_nu mu_nu phi_nu(x) phi_nu(y) is the closed-form kernel on the
        # unit cube, corners included
        axis = np.r_[0.0, 1.0, RNG.uniform(size=18)]
        X = axis if d == 1 else np.column_stack([g.ravel() for g in np.meshgrid(axis, axis)])
        pts = X.reshape(len(X), d)
        closed = np.exp(-scale * ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        assert np.max(np.abs(gram_R(gaussian_rkhs(d, scale), X, X) - closed)) <= 1e-12

    def test_gaussian_basis_reads_the_pairs_its_constructor_computed(self):
        # the floor keeps 10 of the 64 pairs asked for; the builder still
        # reads the constructor's cached pairs, not a second eigendecomposition
        spectra._gaussian_basis.cache_clear()
        spec = gaussian_rkhs(1, 1.0, M=64)
        feature_matrix(spec, RNG.uniform(size=7))
        assert spec.M < 64 and spectra._gaussian_basis.cache_info().misses == 1

    def test_thin_plate_has_no_eigenfunctions(self):
        spec = thin_plate(2, 2)
        with pytest.raises(ValueError):
            feature_matrix(spec, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            gram_R(spec, np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))

    def test_one_point_in_d_dims_has_one_value(self):
        # a 1-d x is one point when d > 1, for the null space as for the rest
        spec = additive(2, 2)
        x = np.array([0.3, 0.7])
        phi, null = feature_matrix(spec, x), null_basis(spec, x)
        assert phi.shape == (1, spec.M) and null.shape == (1, 1)
        assert null[0, 0] == 1.0
        assert phi[0, 1] == pytest.approx(math.sqrt(2) * math.sin(2 * math.pi * 0.7))

    def test_additive_d1_reads_1d_input_as_points(self):
        # additive(m, 1) is the periodic family, columns and constant alike
        addit, periodic = additive(2, 1, M=16), periodic_sobolev(2, M=16)
        x = RNG.uniform(size=5)
        for X in (x, x.reshape(-1, 1)):
            assert np.array_equal(feature_matrix(addit, X), feature_matrix(periodic, x))
            assert np.array_equal(null_basis(addit, X), null_basis(periodic, x))
        assert null_basis(addit, x).shape == (5, 1)

    @pytest.mark.parametrize("spec", [
        periodic_sobolev(2, M=16), smoothing_spline(1, M=16), smoothing_spline(2, M=16),
        additive(2, 2, M=16), gaussian_rkhs(1, 0.7, M=16), gaussian_rkhs(2, 1.0, M=24),
    ], ids=["periodic", "spline1", "spline2", "additive", "gaussian-d1", "gaussian-d2"])
    def test_machine_axis_keeps_each_machines_bits(self, spec):
        # (b, n, d) points give (b, n, .) blocks equal to evaluating each machine alone
        X = RNG.uniform(size=(5, 9, spec.d))
        phi, null = feature_matrix(spec, X), null_basis(spec, X)
        assert phi.shape == (5, 9, spec.M) and null.shape == (5, 9, spec.null_dim)
        for j in range(5):
            for lone in (X[j], X[j, :, 0]) if spec.d == 1 else (X[j],):
                assert np.array_equal(phi[j], feature_matrix(spec, lone))
                assert np.array_equal(null[j], null_basis(spec, lone))

    def test_a_stack_of_1d_coordinates_must_carry_its_point_axis(self):
        # read as (n, d) points, a (3, 224) stack would be 3 points and lose
        # 223 of each machine's coordinates; as (3, 224, 1) it is 3 machines
        spec = smoothing_spline(2, M=16)
        x = RNG.uniform(size=(3, 224))
        for evaluate in (feature_matrix, null_basis, lambda spec, X: gram_R(spec, X, X)):
            with pytest.raises(ValueError, match=re.escape("got shape (3, 224)")):
                evaluate(spec, x)
        phi = feature_matrix(spec, x[..., None])
        assert phi.shape == (3, 224, 16)
        assert np.array_equal(phi.reshape(-1, 16), feature_matrix(spec, x.reshape(-1)))

    @pytest.mark.parametrize("spec", [additive(2, 2, M=16), gaussian_rkhs(2, 1.0, M=24)],
                             ids=["additive", "gaussian-d2"])
    def test_points_in_two_dimensions_are_n_by_2(self, spec):
        X = RNG.uniform(size=(7, 2))
        phi, null = feature_matrix(spec, X), null_basis(spec, X)
        assert phi.shape == (7, spec.M) and null.shape == (7, spec.null_dim)
        assert np.array_equal(phi, feature_matrix(spec, X[None])[0])
        assert np.array_equal(feature_matrix(spec, X[0]), feature_matrix(spec, X[:1]))
        # a 1-d array of 3 coordinates is no 2-d point: its last would be dropped
        for bad in (X[:, :1], np.column_stack([X, X[:, 0]]), np.append(X[0], 0.5)):
            for evaluate in (feature_matrix, null_basis):
                with pytest.raises(ValueError, match=re.escape(f"(n, 2) or (b, n, 2), got shape {bad.shape}")):
                    evaluate(spec, bad)


def _grid64():
    axis = (np.arange(64) + 0.5) / 64
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g1.reshape(-1), g2.reshape(-1)])


class TestAdditivePerCoordinate:
    @pytest.mark.parametrize("m,d,M,points", [
        (2, 2, 40, lambda rng: _grid64()),
        # a machine stack with repeated coordinates, within and across machines
        (2, 2, 40, lambda rng: rng.choice([0.0, -0.0, 0.125, 0.3, 0.5, 0.97], size=(3, 11, 2))),
        (2, 2, 40, lambda rng: rng.uniform(size=(50, 2))),
        # an odd d, on a machine stack with repeated coordinates
        (3, 5, 30, lambda rng: rng.choice([0.0, -0.0, 0.125, 0.3, 0.97, 1.0], size=(2, 9, 5))),
    ], ids=["grid", "repeated-stack", "random", "m3-d5-stack"])
    def test_equals_each_component_on_every_point(self, m, d, M, points):
        # d copies of the periodic family: its eigenvalues, each repeated d
        # times, and its builder at coordinate k in columns k::d
        spec, base = additive(m, d, M), periodic_sobolev(m, M // d)
        assert np.array_equal(spec.eigenvalues, np.repeat(base.eigenvalues, d))
        X = points(np.random.default_rng(3))
        phi = feature_matrix(spec, X)
        for k in range(d):  # bit for bit, the sign of sin(-0.0) included
            x = X[..., k : k + 1]
            component = _periodic_phi(base.M, x, np.empty(x.shape[:-1] + (base.M,)))
            assert np.array_equal(phi[..., k::d].view(np.int64), component.view(np.int64))

    def test_grid_evaluates_each_axis_value_once(self, monkeypatch):
        sizes, real = [], spectra._periodic_phi

        def counting(M, pts, out):
            sizes.append(pts.shape[0])
            return real(M, pts, out)

        monkeypatch.setattr(spectra, "_periodic_phi", counting)
        feature_matrix(additive(2, 2, M=40), _grid64())
        assert len(sizes) == 2 and max(sizes) <= 64


class TestKernels:
    def test_gaussian_closed_form(self):
        spec = gaussian_rkhs(2, scale=1.5)
        x = np.array([0.2, 0.4])
        y = np.array([0.7, 0.1])
        expected = math.exp(-1.5 * float(np.sum((x - y) ** 2)))
        assert gram_R(spec, x, y)[0, 0] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("d,scale", [(1, 1.0), (1, 2.7), (1, 0.4)])
    def test_gaussian_gram_equals_the_broadcast_form(self, d, scale):
        # the closed form that builds the Nyström pairs is built in place, with
        # the float operations of the broadcast formula in the same order
        X = RNG.uniform(-1.0, 2.0, size=(37, d))
        Y = RNG.uniform(size=(53, d))
        ref = np.exp(-scale * ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=-1))
        G = _gaussian_kernel(scale, X[:, 0], Y[:, 0])
        assert G.shape == (37, 53)
        assert np.array_equal(G, ref)

    @pytest.mark.parametrize("spec", [
        periodic_sobolev(2, M=16), smoothing_spline(1, M=16), smoothing_spline(2, M=16),
        additive(2, 2, M=16), gaussian_rkhs(1, 0.7), gaussian_rkhs(2, 1.0),
    ], ids=["periodic", "spline1", "spline2", "additive", "gaussian-d1", "gaussian-d2"])
    def test_gram_is_the_truncated_sum(self, spec):
        # R = sum_nu mu_nu phi_nu phi_nu for every family, the Gaussian included
        X, Y = RNG.uniform(size=(37, spec.d)), RNG.uniform(size=(53, spec.d))
        if spec.d == 1:
            X, Y = X[:, 0], Y[:, 0]
        ref = (feature_matrix(spec, X) * spec.eigenvalues) @ feature_matrix(spec, Y).T
        assert np.array_equal(gram_R(spec, X, Y), ref)

    def test_periodic_R_is_shift_invariant_sum(self):
        spec = periodic_sobolev(2, M=64)
        # oracle: R(x,y) = sum_k 2 (2 pi k)^(-4) cos(2 pi k (x - y))
        x, y = 0.37, 0.81
        k = np.arange(1, 33)
        oracle = float(np.sum(2 * (2 * np.pi * k) ** -4.0 * np.cos(2 * np.pi * k * (x - y))))
        assert gram_R(spec, np.array([x]), np.array([y]))[0, 0] == pytest.approx(oracle, rel=1e-12)

    def test_K_large_lambda_limit(self):
        spec = periodic_sobolev(2, M=32)
        x, y = np.array([0.2]), np.array([0.6])
        # each nonconstant term vanishes as lam -> inf; only the constant's 1 remains
        small = eval_kernel_K(spec, 1e-4, x, y) - 1.0
        large = eval_kernel_K(spec, 1e12, x, y) - 1.0
        assert abs(large) < 1e-6 * abs(small)

    def test_K_mercer_consistency(self):
        spec = periodic_sobolev(2, M=16)
        lam = 1e-3
        x, y = np.array([0.15]), np.array([0.92])
        fx, fy = feature_matrix(spec, x)[0], feature_matrix(spec, y)[0]
        acc = 1.0  # constant term
        for j in range(16):
            acc += fx[j] * fy[j] / (1 + lam / spec.eigenvalues[j])
        assert eval_kernel_K(spec, lam, x, y) == pytest.approx(acc, abs=1e-12)

    def test_kernel_bound_over_grid(self):
        spec = periodic_sobolev(2, M=128)
        lam = 1e-3
        h_inv = spectral_sums(spec, lam).h_inv
        grid = (np.arange(256) + 0.5) / 256
        kxx = [eval_kernel_K(spec, lam, np.array([g]), np.array([g])) for g in grid]
        assert max(kxx) <= 2.0 * h_inv  # c_phi^2 = 2

    def test_gram_consistency(self):
        spec = periodic_sobolev(2, M=32)
        X = RNG.uniform(size=6)
        G = gram_R(spec, X, X)
        assert np.allclose(G, G.T)


def _level_or_none(level, *args):
    try:
        return level(*args)
    except TruncationError:
        return None


def _reference_truncation_level(m, lam, d):
    """The periodic/additive level as a hand-written loop over sin/cos pairs:
    the integral tail bound against the retained ``h_inv``; None past the cap."""
    mu1 = (2 * math.pi) ** (-2 * m)
    t = lam / mu1
    pairs = max(64 // (2 * d), math.ceil(10.0 * t ** (-1.0 / (2 * m))))
    while 2 * pairs * d <= M_CAP:
        k = np.arange(1, pairs + 1, dtype=np.float64)
        h_inv = 1.0 + 2.0 * d * float(np.sum(1.0 / (1.0 + t * k ** (2 * m))))
        tail = 2.0 * d * mu1 * pairs ** (1 - 2 * m) / (2 * m - 1)
        if tail / lam <= 1e-4 * h_inv:
            return 2 * pairs * d
        pairs *= 2
    return None


def _reference_spline_level(m, lam):
    """The smoothing-spline level as a hand-written loop over single
    frequencies, with the tail bound ``mu_k <= (k pi)^(-2m)``; None past the cap."""
    M = max(64, math.ceil(10.0 * (lam / smoothing_spline(m, M=1).mu1) ** (-1.0 / (2 * m))))
    while M <= M_CAP:
        h_inv = m + float(np.sum(1.0 / (1.0 + lam / smoothing_spline(m, M=M).eigenvalues)))
        tail = np.pi ** (-2 * m) * M ** (1 - 2 * m) / (2 * m - 1)
        if tail / lam <= 1e-4 * h_inv:
            return M
        M *= 2
    return None


class TestSpectralSums:
    def test_hand_summed_example(self):
        spec = explicit_spectrum([1.0, 0.25, 1.0 / 9.0])
        sums = spectral_sums(spec, 1.0)
        assert sums.h_inv == pytest.approx(0.5 + 0.2 + 0.1, rel=1e-14)
        assert sums.h_inv2 == pytest.approx(0.25 + 0.04 + 0.01, rel=1e-14)

    def test_constant_contributes_one(self):
        spec = periodic_sobolev(2, M=64)
        big = spectral_sums(spec, 1.0)  # huge lam kills every finite term
        assert big.h_inv == pytest.approx(1.0, abs=1e-2)
        assert big.h_inv2 == pytest.approx(1.0, abs=1e-2)

    def test_h_scaling_band(self):
        # h_inv * lam^{1/(2m)} stays within a fixed band across the grid
        vals = []
        for lam in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            spec = periodic_sobolev(2, M=truncation_level(2, lam))
            vals.append(spectral_sums(spec, lam).h_inv * lam**0.25)
        assert max(vals) / min(vals) < 3.0

    def test_monotone_in_lambda(self):
        spec = periodic_sobolev(2, M=64)
        lams = np.logspace(-4, 0, 9)
        hs = [spectral_sums(spec, lam).h_inv for lam in lams]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_sums_bounded_by_M_property(self, lam):
        spec = explicit_spectrum(np.logspace(0, -3, 12))
        sums = spectral_sums(spec, lam)
        assert 0 < sums.h_inv2 <= sums.h_inv <= 12

    def test_truncation_error_raised(self):
        spec = periodic_sobolev(2, M=64)
        with pytest.raises(TruncationError):
            spectral_sums(spec, 1e-8)

    def test_truncation_level_rule(self):
        mu1 = (2 * math.pi) ** -4
        # floor at 64 when the ratio is moderate
        assert truncation_level(2, mu1 * 0.5) == 64
        # grows for small lam, never odd, capped with an error
        M = truncation_level(2, mu1 * 1e-5)
        assert M >= 2 * math.ceil(10 * (1e-5) ** -0.25) - 2 and M % 2 == 0
        with pytest.raises(TruncationError):
            truncation_level(2, mu1 * 1e-18)

    @given(m=st.integers(1, 3), d=st.integers(1, 3), log_lam=st.floats(-14.0, -1.0))
    @settings(max_examples=60, deadline=None)
    def test_truncation_level_matches_the_reference_loop(self, m, d, log_lam):
        lam = 10.0**log_lam
        assert _level_or_none(truncation_level, m, lam, d) == _reference_truncation_level(m, lam, d)

    @given(m=st.integers(1, 2), log_lam=st.floats(-14.0, -1.0))
    @settings(max_examples=40, deadline=None)
    def test_smoothing_spline_level_matches_the_reference_loop(self, m, log_lam):
        lam = 10.0**log_lam
        assert _level_or_none(smoothing_spline_level, m, lam) == _reference_spline_level(m, lam)

    def test_thin_plate_sums_are_partial_sums(self):
        spec = thin_plate(2, 2, M=4096)
        sums = spectral_sums(spec, 1e-6)  # exempt from the tail error
        assert sums.h_inv > 100


class TestRegularityChecks:
    def test_geometric_tail_ratio(self):
        spec = explicit_spectrum([2.0**-nu for nu in range(1, 21)])
        assert 0 < check_tail_sum(spec) <= 1.0

    def test_single_eigenvalue_convention(self):
        assert check_tail_sum(explicit_spectrum([1.0])) == 0.0

    def test_periodic_tail_sup_finite_and_limit(self):
        spec = periodic_sobolev(2, M=2048)
        sup = check_tail_sum(spec)
        assert sup < 1.2  # sup sits at k=1 (paired twin), 2*zeta(4) - 1
        mu = spec.eigenvalues
        k = 200
        tail_ratio = float(np.sum(mu[k:]) / (k * mu[k - 1]))
        assert tail_ratio == pytest.approx(1.0 / 3.0, rel=0.1)  # 1/(2m-1) limit

    def test_prop31_ratios_at_most_one(self):
        for spec in (
            periodic_sobolev(2, M=256),
            gaussian_rkhs(1, M=64),
            thin_plate(2, 2, M=2048),
        ):
            ratios = check_prop31_ratio(spec, [1e-2, 1e-3])
            assert np.all(ratios > 0) and np.all(ratios <= 1.0)

    def test_prop31_spline_band(self):
        lam_grid = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        spec = periodic_sobolev(
            2, M=truncation_level(2, min(lam_grid))
        )
        ratios = check_prop31_ratio(spec, lam_grid)
        assert np.all(ratios >= 0.2) and np.all(ratios <= 1.0)

    def test_prop31_thin_plate_nonvanishing(self):
        spec = thin_plate(2, 2, M=4096)
        ratios = check_prop31_ratio(spec, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        assert np.min(ratios) > 0.1


def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _beam_root(k):
    """k-th root of cos(b) cosh(b) = 1 by bracketing: one root per [k pi, (k+1) pi]."""
    return scipy.optimize.brentq(
        lambda b: math.cos(b) * math.cosh(b) - 1.0, k * math.pi, (k + 1) * math.pi, xtol=1e-15
    )


class TestSmoothingSpline:
    def test_eigenvalues_are_beam_roots_to_the_minus_four(self):
        spec = smoothing_spline(2, M=8)
        roots = np.array([_beam_root(k) for k in range(1, 9)])
        assert roots[0] == pytest.approx(4.730040744862704, rel=1e-15)  # tabulated b_1
        np.testing.assert_allclose(spec.eigenvalues, roots**-4.0, rtol=1e-14)
        # far out the roots sit at (k + 1/2) pi to double precision
        far = smoothing_spline(2, M=400).eigenvalues[-1]
        assert far == pytest.approx((400.5 * math.pi) ** -4.0, rel=1e-14)

    def test_beam_roots_are_computed_once_and_read_only(self):
        roots = _beam_roots(16)
        assert _beam_roots(16) is roots
        assert not roots.flags.writeable
        with pytest.raises(ValueError):
            roots[0] = 0.0
        assert np.array_equal(smoothing_spline(2, M=16).eigenvalues, roots**-4.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_in_place_modes_equal_the_formula(self, m):
        # the modes are built in place from cached coefficients, with the
        # float operations of the out-of-place formula, so with its bits
        M, x = 128, RNG.uniform(size=300)
        b = math.pi * np.arange(1, M + 1, dtype=np.float64) if m == 1 else _beam_roots(M)
        bx = np.multiply.outer(x, b)
        if m == 1:
            ref = math.sqrt(2.0) * np.cos(bx)
        else:
            e = np.exp(-b)
            den = 1.0 - e * e - 2.0 * e * np.sin(b)
            sigma = (1.0 + e * e - 2.0 * e * np.cos(b)) / den
            a = (np.cos(b) - np.sin(b) - e) / den
            ref = (np.sqrt(1.0 + sigma * sigma) * np.cos(bx + np.arctan(sigma))
                   + 0.5 * (1.0 + sigma) * np.exp(-bx)
                   + a * np.exp(np.multiply.outer(x - 1.0, b)))
        assert np.array_equal(feature_matrix(smoothing_spline(m, M=M), x), ref)

    def test_m1_cosine_basis(self):
        spec = smoothing_spline(1, M=6)
        k = np.arange(1, 7)
        np.testing.assert_allclose(spec.eigenvalues, (k * math.pi) ** -2.0, rtol=1e-15)
        x = np.random.default_rng(7).uniform(size=5)
        np.testing.assert_allclose(
            feature_matrix(spec, x), math.sqrt(2) * np.cos(np.outer(x, k) * math.pi), atol=1e-14
        )
        assert spec.null_dim == 1 and spectral_sums(spec, 1e6).h_inv == pytest.approx(1.0, abs=1e-6)

    def test_matches_textbook_beam_modes(self):
        # oracle: cosh(bx) + cos(bx) - sigma (sinh(bx) + sin(bx)), exact for small b
        spec = smoothing_spline(2, M=5)
        x = np.linspace(0.0, 1.0, 41)
        phi = feature_matrix(spec, x)
        for k in range(1, 6):
            b = _beam_root(k)
            sigma = (math.cosh(b) - math.cos(b)) / (math.sinh(b) - math.sin(b))
            oracle = np.cosh(b * x) + np.cos(b * x) - sigma * (np.sinh(b * x) + np.sin(b * x))
            np.testing.assert_allclose(phi[:, k - 1], oracle, atol=1e-8)

    @pytest.mark.parametrize("m", [1, 2])
    def test_orthonormal_and_orthogonal_to_null_space(self, m):
        M = 48
        spec = smoothing_spline(m, M=M)
        x, w = _gauss_legendre(600)
        phi = np.column_stack([null_basis(spec, x), feature_matrix(spec, x)])
        G = (phi * w[:, None]).T @ phi
        np.testing.assert_allclose(G, np.eye(m + M), atol=1e-10)
        # the raw null space, {1} for m=1 and {1, x} for m=2: every finite
        # eigenfunction is V-orthogonal to it
        fm = feature_matrix(spec, x)
        for j in range(m):
            assert np.max(np.abs((w * x**j) @ fm)) < 1e-10

    def test_penalty_is_diagonal_with_inverse_eigenvalues(self):
        # J(phi_j, phi_k) = integral phi_j'' phi_k'' = delta_jk / mu_k, with the
        # textbook second derivative b^2 (cosh - cos - sigma (sinh - sin))
        K = 5
        spec = smoothing_spline(2, M=K)
        x, w = _gauss_legendre(400)
        d2 = []
        for k in range(1, K + 1):
            b = _beam_root(k)
            sigma = (math.cosh(b) - math.cos(b)) / (math.sinh(b) - math.sin(b))
            d2.append(b * b * (np.cosh(b * x) - np.cos(b * x) - sigma * (np.sinh(b * x) - np.sin(b * x))))
        d2 = np.column_stack(d2)
        J = (d2 * w[:, None]).T @ d2
        np.testing.assert_allclose(np.diag(J), 1.0 / spec.eigenvalues, rtol=1e-9)
        corr = J / np.sqrt(np.outer(np.diag(J), np.diag(J)))
        np.testing.assert_allclose(corr, np.eye(K), atol=1e-9)

    def test_finite_at_the_cap(self):
        spec = smoothing_spline(2, M=M_CAP)  # b_M ~ 5e4: cosh(b) alone would overflow
        x = np.array([0.0, 1e-4, 0.3, 0.5, 1.0 - 1e-4, 1.0])
        phi = feature_matrix(spec, x)
        assert np.all(np.isfinite(phi))
        assert np.max(np.abs(phi)) <= 2.0 + 1e-8
        np.testing.assert_allclose(phi[0], 2.0, rtol=1e-12)  # phi_k(0) = 2
        # |phi_k(1)| = 2, up to the phase error of cos(b x) at b ~ 5e4
        np.testing.assert_allclose(np.abs(phi[-1]), 2.0, rtol=1e-10)

    def test_exact_gram_matches_truncated_feature(self):
        # a single machine fitted both ways: the n x n KKT system with the
        # two-dimensional null space and the primal ridge in the M-term basis
        from dckrr.solver import Dataset, krr_fit, predict

        rng = np.random.default_rng(31)
        spec = smoothing_spline(2, M=256)
        xs = rng.uniform(size=50)
        sub = Dataset(xs=xs, ys=0.6 * np.sin(1.5 * np.pi * xs) + rng.standard_normal(50))
        f1 = krr_fit(spec, sub, lam=1e-4, solve_path="exact_gram")
        f2 = krr_fit(spec, sub, lam=1e-4, solve_path="truncated_feature")
        grid = (np.arange(512) + 0.5) / 512
        np.testing.assert_allclose(predict(spec, f1, grid), predict(spec, f2, grid), atol=1e-10)
        np.testing.assert_allclose(f1.beta, f2.beta, atol=1e-10)
        np.testing.assert_allclose(f1.mercer_coeffs(spec), f2.mercer_coeffs(spec), atol=1e-12)

    def test_spectral_sums_count_the_null_space(self):
        spec = smoothing_spline(2, M=64)
        lam = 1e-4
        w = 1.0 / (1.0 + lam / spec.eigenvalues)
        sums = spectral_sums(spec, lam)
        assert spec.null_dim == 2
        assert sums.h_inv == pytest.approx(2.0 + float(np.sum(w)), rel=1e-14)
        assert sums.h_inv2 == pytest.approx(2.0 + float(np.sum(w * w)), rel=1e-14)
        assert spectral_sums(spec, 1e3).h_inv == pytest.approx(2.0, abs=1e-4)

    def test_kernel_K_includes_linear_null_function(self):
        spec = smoothing_spline(2, M=32)
        lam, x, y = 1e-3, 0.15, 0.92
        w = 1.0 / (1.0 + lam / spec.eigenvalues)
        fx = feature_matrix(spec, np.array([x]))[0]
        fy = feature_matrix(spec, np.array([y]))[0]
        oracle = 1.0 + 12.0 * (x - 0.5) * (y - 0.5) + float(np.sum(w * fx * fy))
        assert eval_kernel_K(spec, lam, np.array([x]), np.array([y])) == pytest.approx(oracle, rel=1e-13)

    def test_truncation_level_rule(self):
        assert smoothing_spline_level(2, 1e-2) == 64  # floor
        for lam in (1e-6, 1e-10):
            M = smoothing_spline_level(2, lam)
            spectral_sums(smoothing_spline(2, M=M), lam)  # tail within tolerance
            with pytest.raises(TruncationError):  # the previous, halved level is not
                spectral_sums(smoothing_spline(2, M=M // 2), lam)
        with pytest.raises(TruncationError):
            smoothing_spline_level(2, 1e-18)

    def test_rejects_orders_without_closed_form(self):
        with pytest.raises(ValueError, match="m=3"):
            smoothing_spline(3)
        with pytest.raises(ValueError):
            smoothing_spline(2, M=0)
        with pytest.raises(TruncationError):
            smoothing_spline(2, M=M_CAP + 1)



def _whole_array_basis(spec, x):
    """The periodic or smoothing-spline basis at the points ``x`` built over
    the whole array at once, with the float operations of the tiled build."""
    M = spec.M
    if spec.family == "periodic_sobolev":
        out = np.empty(x.shape + (M,))
        out[..., 0::2] = np.sin(2.0 * np.pi * np.multiply.outer(x, np.arange(1, (M + 1) // 2 + 1)))
        out[..., 1::2] = np.cos(2.0 * np.pi * np.multiply.outer(x, np.arange(1, M // 2 + 1)))
        out *= math.sqrt(2.0)
        return out
    b = spectra._spline_freqs(spec.m, M)
    out = np.multiply.outer(x, b)
    if spec.m == 1:
        np.cos(out, out=out)
        out *= math.sqrt(2.0)
        return out
    phase, amp, decay, a = spectra._beam_coeffs(M)
    tmp = np.negative(out)
    np.exp(tmp, out=tmp)
    tmp *= decay
    out += phase
    np.cos(out, out=out)
    out *= amp
    out += tmp
    np.multiply.outer(x - 1.0, b, out=tmp)
    np.exp(tmp, out=tmp)
    tmp *= a
    out += tmp
    return out


TILED = [periodic_sobolev(2, M=64), smoothing_spline(1, M=96), smoothing_spline(2, M=128),
         smoothing_spline(2, M=7)]
TILED_IDS = ["periodic", "spline1", "spline2", "spline2-odd-M"]


def _tiled_points(spec, shape_of_rows):
    """Uniform coordinates, and ``[0, 1]``'s ends, over several row tiles of
    ``spec`` with a ragged last one: ``(n,)`` or a machine stack ``(b, n)``,
    and the points of :func:`feature_matrix` for them."""
    rows = spectra._TILE_VALUES // spec.M
    x = np.random.default_rng(spec.M).uniform(size=shape_of_rows(3 * rows + rows // 2 + 1))
    x.reshape(-1)[:2] = (0.0, 1.0)
    return x, x if x.ndim == 1 else x[..., None]


class TestRowTiles:
    @pytest.mark.parametrize("spec", TILED, ids=TILED_IDS)
    @pytest.mark.parametrize("shape", [lambda n: (n,), lambda n: (3, n // 2)], ids=["flat", "stacked"])
    def test_equals_the_whole_array_build(self, spec, shape):
        x, pts = _tiled_points(spec, shape)
        assert np.array_equal(feature_matrix(spec, pts), _whole_array_basis(spec, x))

    @pytest.mark.parametrize("spec", TILED, ids=TILED_IDS)
    def test_fills_a_strided_out_and_leaves_the_rest(self, spec):
        x, pts = _tiled_points(spec, lambda n: (3, n // 2))
        ref = _whole_array_basis(spec, x)
        # a column slice of a wider array, whose rows merge across machines
        wide = np.full((3, x.shape[1], spec.M + 3), -7.0)
        got = feature_matrix(spec, pts, out=wide[..., 2:-1])
        assert np.shares_memory(got, wide) and np.array_equal(got, ref)
        assert np.all(wide[..., :2] == -7.0) and np.all(wide[..., -1] == -7.0)
        # a row slice, whose machines no view can merge, is refused, not copied
        wide = np.full((3, x.shape[1] + 1, spec.M), -7.0)
        with pytest.raises(ValueError, match="must merge into one without a copy"):
            feature_matrix(spec, pts, out=wide[:, 1:])
        with pytest.raises(ValueError, match="out must have shape"):
            feature_matrix(spec, pts, out=np.empty((3, x.shape[1], spec.M + 1)))

    @pytest.mark.parametrize("spec", TILED, ids=TILED_IDS)
    def test_each_row_equals_that_row_alone(self, spec):
        x, _ = _tiled_points(spec, lambda n: (n,))
        phi = feature_matrix(spec, x)
        for i in range(x.shape[0]):
            assert np.array_equal(phi[i], feature_matrix(spec, x[i : i + 1])[0])

    def test_gaussian_and_additive_fill_out_with_their_whole_result(self):
        x = np.random.default_rng(5).uniform(size=(2, 40, 2))
        for spec in (gaussian_rkhs(2, 1.0, M=24), additive(2, 2, M=16)):
            wide = np.full((2, 40, spec.M + 1), -7.0)
            got = feature_matrix(spec, x, out=wide[..., 1:])
            assert np.array_equal(got, feature_matrix(spec, x)) and np.all(wide[..., 0] == -7.0)


def test_spectrum_equality_semantics():
    assert periodic_sobolev(2, M=16) == periodic_sobolev(2, M=16)
    assert periodic_sobolev(2, M=16) != periodic_sobolev(2, M=32)
    spec = periodic_sobolev(2, M=16)
    fields = dict(family="periodic_sobolev", m=2, d=1, eigenvalues=spec.eigenvalues,
                  null_dim=1, tail=spec.tail, sup_sq=2.0, basis=spec.basis)
    assert spec == Spectrum(**fields)
    for change in ({"eigenvalues": np.ones(16)}, {"null_dim": 0}, {"tail": 0.0},
                   {"sup_sq": None}):
        assert spec != Spectrum(**{**fields, **change}), change


_GAUSSIAN = gaussian_rkhs(2, 1.0, M=16)


@pytest.mark.parametrize("spec,null_dim,tail,sup_sq", [
    (periodic_sobolev(2, M=16), 1, 2 * (2 * math.pi) ** -4 * 8.0**-3 / 3, 2.0),
    (smoothing_spline(1, M=16), 1, math.pi**-2 / 16, 2.0),
    (smoothing_spline(2, M=16), 2, math.pi**-4 * 16.0**-3 / 3, 4.0),
    (additive(2, 2, M=16), 1, 4 * (2 * math.pi) ** -4 * 4.0**-3 / 3, 2.0),
    (_GAUSSIAN, 0, 1.0 - math.fsum(_GAUSSIAN.eigenvalues), None),
    (thin_plate(2, 2, M=16), 0, 0.0, None),
    (explicit_spectrum([1.0, 0.5, 0.25]), 0, 0.0, None),
], ids=["periodic", "spline1", "spline2", "additive", "gaussian", "thin_plate", "explicit"])
def test_null_dim_is_each_familys_null_space(spec, null_dim, tail, sup_sq):
    # fields set by each constructor: the number of null_basis columns, the
    # bound on the eigenvalues past M (the integral bound over pairs or
    # singles, the Gaussian's untaken trace) and on phi(x)^2
    assert spec.null_dim == null_dim
    assert null_basis(spec, RNG.uniform(size=(5, spec.d))).shape == (5, null_dim)
    assert spec.tail == pytest.approx(tail, rel=1e-9, abs=0.0)  # 1 - sum cancels
    assert spec.sup_sq == sup_sq
    if sup_sq is not None:  # the bound holds on a grid, for the finite and null columns
        x = np.linspace(0.0, 1.0, 257).reshape(-1, 1) @ np.ones((1, spec.d))
        assert np.max(feature_matrix(spec, x) ** 2) <= sup_sq * (1 + 1e-12)
        assert np.max(null_basis(spec, x) ** 2) <= sup_sq * (1 + 1e-12)


@pytest.mark.parametrize("make,unit", [
    (lambda M: periodic_sobolev(2, M), 2),
    (lambda M: smoothing_spline(2, M), 1),
    (lambda M: additive(2, 1, M), 2),
    (lambda M: additive(2, 2, M), 4),
    (lambda M: thin_plate(2, 1, M), 1),
], ids=["periodic", "spline", "additive-d1", "additive-d2", "thin_plate"])
def test_level_is_a_positive_multiple_of_the_unit_within_the_cap(make, unit):
    assert make(unit).M == unit and make(M_CAP).M == M_CAP
    for M in [0, -4] + [unit + 1] * (unit > 1):
        with pytest.raises(ValueError, match=f"multiple of {unit}, got M={M}$"):
            make(M)
    with pytest.raises(TruncationError, match="exceeds cap"):
        make(M_CAP + unit)


def _one_dimensional(family, make):
    """``make(m, lam)`` of a one-dimensional family, which refuses ``d != 1``."""

    def build(m, d, lam):
        if d != 1:
            raise ValueError(f"d must be 1 for the one-dimensional {family} family, got d={d}")
        return make(m, lam)

    return build


# The constructor and level that each config name stood for.
_BY_NAME = {
    "spline": _one_dimensional(
        "spline", lambda m, lam: smoothing_spline(m, smoothing_spline_level(m, lam))),
    "periodic_sobolev": _one_dimensional(
        "periodic_sobolev", lambda m, lam: periodic_sobolev(m, truncation_level(m, lam))),
    "additive": lambda m, d, lam: additive(m, d, truncation_level(m, lam, d)),
    "gaussian": lambda m, d, lam: gaussian_rkhs(d, 1.0, M_CAP),
    "gaussian_rkhs": lambda m, d, lam: gaussian_rkhs(d, 1.0, M_CAP),
    "thin_plate": lambda m, d, lam: thin_plate(m, d, M_DEFAULT),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_family_name_resolves_to_its_constructor_at_its_level(family):
    assert set(_BY_NAME) == set(FAMILIES)
    for (m, d), lam in itertools.product([(1, 1), (2, 1), (2, 2), (3, 2), (1, 2)],
                                         [1e-2, 1e-4, 1e-6]):
        try:
            expected = _BY_NAME[family](m, d, lam)
            spectral_sums(expected, lam)
        except ValueError as exc:  # no such spectrum, a level past the cap, or unresolved
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                spectrum_for(family, m, d, lam)
            continue
        assert spectrum_for(family, m, d, lam) == expected, (m, d, lam)
    assert spectrum_for(family, 2, 1, 1.0, M=8).M == 8  # an explicit level is taken as given


@pytest.mark.parametrize("family", FAMILIES)
def test_spectrum_pickles_with_its_basis(family):
    # a spectrum shipped to another process builds the same basis there
    spec = spectrum_for(family, 2, 2 if family in ("additive", "gaussian") else 1, 1e-3)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    if spec.basis is None:
        assert copy.basis is None
        return
    X = np.random.default_rng(11).uniform(size=(3, 7, spec.d))
    assert np.array_equal(feature_matrix(copy, X).view(np.int64),
                          feature_matrix(spec, X).view(np.int64))
    assert np.array_equal(null_basis(copy, X), null_basis(spec, X))


def test_unknown_family_name_is_refused():
    with pytest.raises(ValueError, match="family must be one of"):
        spectrum_for("spline1d", 2, 1, 1e-3)
