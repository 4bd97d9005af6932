"""Unit tests for the divide-and-conquer driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dckrr import dnc, solver
from dckrr.dnc import (
    Dataset,
    DncEstimate,
    Partition,
    fit_all,
    partition,
    predict_bar,
    xi_diagnostic,
)
from dckrr.solver import SOLVE_PATHS, krr_fit, predict
from dckrr.spectra import (
    additive,
    feature_matrix,
    gaussian_rkhs,
    gram_R,
    null_basis,
    periodic_sobolev,
    smoothing_spline,
)


def _dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=n)
    ys = 0.6 * np.sin(1.5 * np.pi * xs) + rng.standard_normal(n)
    return Dataset(xs=xs, ys=ys)


def _machine_rows(data, part, j):
    """Machine ``j``'s rows of the sample, gathered from the partition."""
    idx = part.assignment[j]
    return Dataset(xs=data.xs[idx], ys=data.ys[idx])


class TestPartition:
    def test_shapes_and_remainder(self):
        data = _dataset(103)
        part = partition(data, s=4, seed=42)
        assert part.assignment.shape == (4, 25)
        assert np.setdiff1d(np.arange(103), part.assignment).shape == (3,)
        assert part.N_effective == 100

    def test_disjoint_and_within_range(self):
        data = _dataset(100)
        part = partition(data, s=5, seed=1)
        flat = part.assignment.ravel()
        assert len(set(flat.tolist())) == 100
        assert flat.min() >= 0 and flat.max() < 100

    def test_deterministic_in_seed(self):
        data = _dataset(64)
        p1 = partition(data, s=4, seed=9)
        p2 = partition(data, s=4, seed=9)
        p3 = partition(data, s=4, seed=10)
        assert np.array_equal(p1.assignment, p2.assignment)
        assert not np.array_equal(p1.assignment, p3.assignment)

    def test_validation(self):
        data = _dataset(10)
        with pytest.raises(ValueError):
            partition(data, s=0, seed=0)
        with pytest.raises(ValueError):
            partition(data, s=11, seed=0)


BLOCK_CASES = {
    "periodic": lambda: periodic_sobolev(2, M=32),
    "spline1": lambda: smoothing_spline(1, M=24),
    "spline2": lambda: smoothing_spline(2, M=24),
    "additive-d2": lambda: additive(2, 2, M=40),
    "gaussian-d1": lambda: gaussian_rkhs(1, 1.0, M=16),
    "gaussian-d2": lambda: gaussian_rkhs(2, 1.0, M=24),
}


class TestFitAll:
    def test_single_machine_matches_direct_fit(self):
        data = _dataset(50)
        spec = periodic_sobolev(2, M=64)
        part = partition(data, s=1, seed=0)
        est = fit_all(spec, data, part, lam=1e-3, solve_path="exact_gram")
        direct = krr_fit(spec, _machine_rows(data, part, 0), lam=1e-3, solve_path="exact_gram")
        np.testing.assert_array_equal(est.fits[0].alpha, direct.alpha)
        assert np.array_equal(est.beta, direct.beta)
        grid = np.linspace(0, 1, 33)
        np.testing.assert_allclose(predict_bar(est, grid), predict(spec, direct, grid), atol=1e-12)

    def test_coeffs_are_mean_of_machine_coeffs(self):
        data = _dataset(96)
        spec = periodic_sobolev(2, M=32)
        part = partition(data, s=4, seed=3)
        est = fit_all(spec, data, part, lam=1e-3, solve_path="truncated_feature")
        per_machine = np.stack([f.mercer_coeffs(spec) for f in est.fits])
        np.testing.assert_allclose(est.coeffs, per_machine.mean(axis=0), atol=1e-14)
        np.testing.assert_allclose(
            est.beta, np.stack([f.beta for f in est.fits]).mean(axis=0), rtol=0, atol=1e-14
        )

    def test_predict_bar_is_mean_of_predictions(self):
        data = _dataset(80)
        spec = periodic_sobolev(2, M=32)
        part = partition(data, s=4, seed=3)
        est = fit_all(spec, data, part, lam=1e-3, solve_path="exact_gram")
        grid = np.linspace(0, 1, 17)
        stacked = np.stack([predict(spec, f, grid) for f in est.fits])
        np.testing.assert_allclose(predict_bar(est, grid), stacked.mean(axis=0), atol=1e-12)

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_estimate_keeps_the_rows_it_was_fitted_on(self, d, path):
        # machine j's rows, row j; 3 points dropped by the partition
        rng = np.random.default_rng(8)
        xs = rng.uniform(size=(63, d)) if d > 1 else rng.uniform(size=63)
        data = Dataset(xs=xs, ys=rng.standard_normal(63))
        spec = additive(2, 2, M=40) if d > 1 else periodic_sobolev(2, M=32)
        part = partition(data, s=4, seed=8)
        est = fit_all(spec, data, part, lam=1e-3, solve_path=path)
        assert est.xs.shape == part.assignment.shape + xs.shape[1:]
        assert np.array_equal(est.xs, data.xs[part.assignment])
        assert np.array_equal(est.ys, data.ys[part.assignment])
        for name in ("xs", "ys"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(est, name)[0, 0] = 0.0

    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_workers_other_than_one_are_rejected(self, workers):
        # fits run serially; workers=None and workers=1 are the same call
        data = _dataset(120)
        spec = periodic_sobolev(2, M=32)
        part = partition(data, s=6, seed=7)
        base = fit_all(spec, data, part, lam=1e-3, solve_path="truncated_feature")
        one = fit_all(spec, data, part, lam=1e-3, solve_path="truncated_feature", workers=1)
        assert np.array_equal(base.coeffs, one.coeffs) and np.array_equal(base.beta, one.beta)
        with pytest.raises(ValueError, match="workers"):
            fit_all(spec, data, part, lam=1e-3, solve_path="truncated_feature", workers=workers)

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_every_fit_is_its_lone_fit(self, case, path):
        # machines are fitted in blocks of _BLOCK_ROWS // n; two whole blocks
        # and one machine more leave a partial last block
        spec, n = BLOCK_CASES[case](), 150
        s = 2 * (dnc._BLOCK_ROWS // n) + 1
        rng = np.random.default_rng(11)
        xs = rng.uniform(size=(s * n + 3, spec.d))
        data = Dataset(xs=xs[:, 0] if spec.d == 1 else xs, ys=rng.standard_normal(s * n + 3))
        part = partition(data, s=s, seed=11)
        est = fit_all(spec, data, part, lam=1e-3, solve_path=path)
        assert est.s == s
        for j, fit in enumerate(est.fits):
            lone = krr_fit(spec, _machine_rows(data, part, j), lam=1e-3, solve_path=path)
            assert fit.solve_path == lone.solve_path
            for name in ("beta", "alpha", "theta", "features"):
                a, b = getattr(fit, name), getattr(lone, name)
                assert (a is None) == (b is None), name
                assert a is None or (a.shape == b.shape and np.array_equal(a, b)), name

    @pytest.mark.parametrize("bad, row", [("xs", "used"), ("ys", "used"), ("xs", "dropped")])
    def test_non_finite_data_is_rejected(self, bad, row):
        # the sample is refused where it is built, a row that partition
        # would drop included
        data = _dataset(61)
        part = partition(data, s=3, seed=0)
        left_out = np.setdiff1d(np.arange(61), part.assignment)
        i = part.assignment[1, 7] if row == "used" else left_out[0]
        arrays = {"xs": data.xs.copy(), "ys": data.ys.copy()}
        arrays[bad][i] = np.nan if bad == "xs" else np.inf
        with pytest.raises(ValueError, match=f"{bad} contains non-finite values"):
            Dataset(**arrays)

    def test_dataset_owns_read_only_copies(self):
        # a value written into the caller's arrays afterwards reaches neither
        # the sample nor its fit, and the sample's own arrays refuse writes
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(size=60), rng.standard_normal(60)
        data = Dataset(xs=xs, ys=ys)
        spec = periodic_sobolev(2, M=32)
        part = partition(data, s=3, seed=3)
        before = fit_all(spec, data, part, lam=1e-3, solve_path="truncated_feature")
        saved = data.xs.copy(), data.ys.copy()
        xs[part.assignment[1, 2]] = np.nan
        ys[part.assignment[0, 0]] = np.nan
        assert np.array_equal(data.xs, saved[0]) and np.array_equal(data.ys, saved[1])
        after = fit_all(spec, data, part, lam=1e-3, solve_path="truncated_feature")
        assert np.all(np.isfinite(after.coeffs))
        assert np.array_equal(after.coeffs, before.coeffs) and np.array_equal(after.beta, before.beta)
        for name in ("xs", "ys"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(data, name)[0] = 0.0

    def test_not_positive_definite_raises_linalg_error(self):
        # every point at x = 1/2, where the null function sqrt(12) (x - 1/2)
        # vanishes: the normal equations are singular, and potrf says so
        data = Dataset(xs=np.full(36, 0.5), ys=np.arange(36.0))
        part = partition(data, s=3, seed=0)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            fit_all(smoothing_spline(2, M=8), data, part, lam=1e-3, solve_path="truncated_feature")

    def test_series_reconstruction(self):
        # <beta, t> + sum_nu c_nu phi_nu reproduces predict_bar on the feature path, t = {1}
        data = _dataset(60)
        spec = periodic_sobolev(2, M=32)
        part = partition(data, s=3, seed=2)
        est = fit_all(spec, data, part, lam=1e-3, solve_path="truncated_feature")
        grid = np.linspace(0, 1, 25)
        series = null_basis(spec, grid) @ est.beta + feature_matrix(spec, grid) @ est.coeffs
        np.testing.assert_allclose(series, predict_bar(est, grid), atol=1e-10)


    @pytest.mark.parametrize("solve_path", ["exact_gram", "truncated_feature"])
    def test_series_reconstruction_with_linear_null_space(self, solve_path):
        # <beta, t> + sum_nu c_nu phi_nu reproduces predict_bar, t = {1, sqrt(12)(x - 1/2)}
        data = _dataset(90)
        spec = smoothing_spline(2, M=64)
        part = partition(data, s=3, seed=2)
        est = fit_all(spec, data, part, lam=1e-4, solve_path=solve_path)
        assert est.beta.shape == (2,)
        np.testing.assert_allclose(
            est.beta, np.stack([f.beta for f in est.fits]).mean(axis=0), rtol=0, atol=1e-14
        )
        grid = np.linspace(0, 1, 25)
        series = null_basis(spec, grid) @ est.beta + feature_matrix(spec, grid) @ est.coeffs
        np.testing.assert_allclose(series, predict_bar(est, grid), atol=1e-10)


def _lone_predict(spec, fit, xs, X):
    """One machine, fitted on ``xs``, evaluated on its own: the reference form
    of ``predict``, with the basis at ``X`` built for this machine alone."""
    null = null_basis(spec, X) @ fit.beta
    if fit.solve_path == "exact_gram":
        return null + gram_R(spec, X, xs) @ fit.alpha
    psi = feature_matrix(spec, X) * np.sqrt(spec.eigenvalues)
    return null + psi @ fit.theta


PREDICT_BAR_CASES = {
    "smoothing_spline-truncated_feature": (lambda: smoothing_spline(2, M=64), 1, "truncated_feature"),
    "periodic_sobolev-exact_gram": (lambda: periodic_sobolev(2, M=32), 1, "exact_gram"),
    "additive_d2-exact_gram": (lambda: additive(2, 2, M=40), 2, "exact_gram"),
    "gaussian_rkhs": (lambda: gaussian_rkhs(1, 1.0, M=16), 1, "exact_gram"),
}


class TestPredictBar:
    @staticmethod
    def _fit(case, s=6, n_per=9):
        make_spec, d, path = PREDICT_BAR_CASES[case]
        rng = np.random.default_rng(17)
        N = s * n_per
        xs = rng.uniform(size=(N, d)) if d > 1 else rng.uniform(size=N)
        ys = np.sin(3.0 * (xs if d == 1 else xs[:, 0])) + rng.standard_normal(N)
        data = Dataset(xs=xs, ys=ys)
        spec = make_spec()
        est = fit_all(spec, data, partition(data, s, seed=4), lam=1e-3, solve_path=path)
        grid = rng.uniform(size=(33, d)) if d > 1 else np.linspace(0, 1, 33)
        return spec, est, grid

    @pytest.mark.parametrize("case", list(PREDICT_BAR_CASES))
    def test_equals_ordered_fold_of_lone_predictions(self, case):
        spec, est, grid = self._fit(case)
        assert np.array_equal(
            predict_bar(est, grid), sum(predict(spec, f, grid) for f in est.fits) / est.s
        )
        assert np.array_equal(
            predict_bar(est, grid),
            sum(_lone_predict(spec, f, xs, grid) for f, xs in zip(est.fits, est.xs)) / est.s,
        )
        for f, xs in zip(est.fits, est.xs):
            assert np.array_equal(predict(spec, f, grid), _lone_predict(spec, f, xs, grid))

    @pytest.mark.parametrize("make_spec, d", [
        (lambda: additive(2, 2, M=40), 2),
        (lambda: smoothing_spline(2, M=32), 1),
        (lambda: gaussian_rkhs(1, 1.0, M=16), 1),
    ], ids=["additive", "spline", "gaussian"])
    def test_collected_predictions_keep_their_values(self, make_spec, d):
        # exact_gram products share one buffer; no yielded array may alias it
        rng = np.random.default_rng(6)
        xs = rng.uniform(size=(48, d)) if d > 1 else rng.uniform(size=48)
        data = Dataset(xs=xs, ys=np.sin(3.0 * (xs if d == 1 else xs[:, 0])))
        spec = make_spec()
        est = fit_all(spec, data, partition(data, 4, seed=6), lam=1e-3, solve_path="exact_gram")
        grid = rng.uniform(size=(33, d)) if d > 1 else np.linspace(0, 1, 33)
        collected = list(solver._predictions(spec, est.fits, grid))
        assert len(collected) == est.s
        for values, fit in zip(collected, est.fits):
            assert np.array_equal(values, predict(spec, fit, grid))

    @pytest.mark.parametrize("case", list(PREDICT_BAR_CASES))
    def test_coeffs_equal_the_anchor_formula(self, case):
        # an exact_gram fit's kept basis gives the bits of evaluating it again
        spec, est, _ = self._fit(case)
        mu = spec.eigenvalues
        per_machine = [
            mu * (feature_matrix(spec, xs).T @ f.alpha) if f.solve_path == "exact_gram"
            else f.theta * np.sqrt(mu)
            for f, xs in zip(est.fits, est.xs)
        ]
        assert np.array_equal(est.coeffs, sum(per_machine, np.zeros(spec.M)) / est.s)

    @pytest.mark.parametrize("case", ["smoothing_spline-truncated_feature", "periodic_sobolev-exact_gram"])
    def test_evaluates_the_basis_at_X_once(self, case, monkeypatch):
        spec, est, grid = self._fit(case)
        assert est.s == 6
        seen = []

        def counting(spec_, X):
            seen.append(np.asarray(X))
            return feature_matrix(spec_, X)

        monkeypatch.setattr(solver, "feature_matrix", counting)
        predict_bar(est, grid)
        assert sum(X.shape == grid.shape and np.array_equal(X, grid) for X in seen) == 1


class TestXiDiagnostic:
    def test_shape_and_symmetry(self):
        data = _dataset(64)
        spec = periodic_sobolev(2, M=16)
        part = partition(data, s=2, seed=0)
        xi = xi_diagnostic(spec, data, part, lam=1e-2)
        assert xi.shape == (2,)
        assert np.all(xi >= 0)

    def test_equispaced_grid_is_nearly_exact(self):
        # on an exact quadrature grid the empirical design matches the
        # population one, so xi collapses to near zero
        n, M = 64, 16
        spec = periodic_sobolev(2, M=M)
        xs = (np.arange(n) + 0.5) / n
        data = Dataset(xs=xs, ys=np.zeros(n))
        part = Partition(assignment=np.arange(n).reshape(1, n))
        xi = xi_diagnostic(spec, data, part, lam=1e-2)
        assert xi[0] < 1e-10

    def test_grows_with_fewer_points(self):
        spec = periodic_sobolev(2, M=16)
        rng = np.random.default_rng(21)
        vals = []
        for n in (32, 512):
            xs = rng.uniform(size=n)
            data = Dataset(xs=xs, ys=np.zeros(n))
            part = Partition(assignment=np.arange(n).reshape(1, n))
            vals.append(xi_diagnostic(spec, data, part, lam=1e-2)[0])
        assert vals[1] < vals[0]


EPS = np.finfo(np.float64).eps

PROPERTY_SPECS = {
    "smoothing_spline": smoothing_spline(2, M=64),
    "periodic_sobolev": periodic_sobolev(2, M=64),
    "gaussian_rkhs": gaussian_rkhs(1, 1.0),
}

# A random problem: family, seed, machines, points per machine, log10(lambda).
problems = st.tuples(
    st.sampled_from(list(PROPERTY_SPECS)), st.integers(0, 2**32 - 1),
    st.integers(1, 6), st.integers(6, 14), st.floats(-4.0, -1.0),
)


def _problem(problem):
    name, seed, s, n, log_lam = problem
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=s * n)
    data = Dataset(xs=xs, ys=np.sin(3.0 * xs) + rng.standard_normal(s * n))
    return PROPERTY_SPECS[name], data, partition(data, s, seed), 10.0**log_lam


class TestProperties:
    GRID = np.linspace(0, 1, 33)

    @given(problems, st.sampled_from(SOLVE_PATHS), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_machine_order_does_not_change_the_estimate(self, problem, path, rnd):
        spec, data, part, lam = _problem(problem)
        order = list(range(part.s))
        rnd.shuffle(order)
        shuffled = Partition(assignment=part.assignment[order])
        a = fit_all(spec, data, part, lam, path)
        b = fit_all(spec, data, shuffled, lam, path)
        # summing the s machines' values in two orders and dividing by s moves
        # each entry by at most s * eps * mean|v| (to first order); allow twice that
        values = np.stack([predict(spec, f, self.GRID) for f in a.fits])
        coeffs = np.stack([f.mercer_coeffs(spec) for f in a.fits])
        for x, y, v in ((predict_bar(a, self.GRID), predict_bar(b, self.GRID), values),
                        (a.coeffs, b.coeffs, coeffs),
                        (a.beta, b.beta, np.stack([f.beta for f in a.fits]))):
            assert np.all(np.abs(x - y) <= 2 * part.s * EPS * np.abs(v).mean(axis=0))

    @given(problems, st.sampled_from(SOLVE_PATHS), st.floats(-3, 3, allow_subnormal=False),
           st.floats(-3, 3, allow_subnormal=False))
    @settings(max_examples=30, deadline=None)
    def test_fit_all_is_linear_in_ys(self, problem, path, a, b):
        spec, data, part, lam = _problem(problem)
        y2 = np.cos(7.0 * data.xs)
        fits = [fit_all(spec, Dataset(xs=data.xs, ys=ys), part, lam, path)
                for ys in (data.ys, y2, a * data.ys + b * y2)]
        for get in (lambda e: predict_bar(e, self.GRID), lambda e: e.coeffs, lambda e: e.beta):
            f1, f2, f3 = map(get, fits)
            # solves with lambda >= 1e-4 on a dozen points are linear to ~1e-12
            scale = abs(a) * np.max(np.abs(f1), initial=0) + abs(b) * np.max(np.abs(f2), initial=0)
            np.testing.assert_allclose(f3, a * f1 + b * f2, rtol=0, atol=1e-9 * scale)

    @given(problems)
    @settings(max_examples=30, deadline=None)
    def test_solve_paths_agree(self, problem):
        # both paths fit the same estimator, on the same truncated kernel
        spec, data, part, lam = _problem(problem)
        gram, feature = (fit_all(spec, data, part, lam, path) for path in SOLVE_PATHS)
        for x, y in ((predict_bar(gram, self.GRID), predict_bar(feature, self.GRID)),
                     (gram.coeffs, feature.coeffs), (gram.beta, feature.beta)):
            np.testing.assert_allclose(y, x, rtol=0, atol=1e-9 * np.max(np.abs(x), initial=0))
