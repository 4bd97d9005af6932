"""Unit tests for the divide-and-conquer driver."""

import importlib
import inspect
import multiprocessing
import sys
import threading
import time
import traceback
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dckrr import dnc, simlab, solver
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

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_averages_are_ordered_folds_from_zeros(self, path):
        # 40 machines and a null space of one function: NumPy's add.reduce
        # would sum that single column pairwise, not in machine order
        data = _dataset(40 * 12, seed=2)
        spec = periodic_sobolev(2, M=16)
        est = fit_all(spec, data, partition(data, 40, seed=1), lam=1e-3, solve_path=path)
        assert spec.null_dim == 1
        assert np.array_equal(est.beta, sum((f.beta for f in est.fits), np.zeros(1)) / est.s)
        coeffs = sum((f.mercer_coeffs(spec) for f in est.fits), np.zeros(spec.M)) / est.s
        assert np.array_equal(est.coeffs, coeffs)

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
        basis = solver._prediction_basis(spec, "exact_gram", grid)
        collected = list(solver._values(est.fits, *basis))
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

    @pytest.mark.parametrize("case, parallel", [
        ("smoothing_spline-truncated_feature", False),
        ("periodic_sobolev-exact_gram", False),
        ("periodic_sobolev-exact_gram", True),
    ], ids=["smoothing_spline-truncated_feature", "periodic_sobolev-exact_gram",
            "periodic_sobolev-exact_gram-parallel"])
    def test_evaluates_the_basis_at_X_once(self, case, parallel, in_parallel, monkeypatch):
        spec, est, grid = self._fit(case)
        assert est.s == 6
        tasks = in_parallel() if parallel else []
        seen = []

        def counting(spec_, X):
            seen.append(np.asarray(X))
            return feature_matrix(spec_, X)

        monkeypatch.setattr(solver, "feature_matrix", counting)
        predict_bar(est, grid)
        assert sum(X.shape == grid.shape and np.array_equal(X, grid) for X in seen) == 1
        assert bool(tasks) == parallel


@pytest.fixture
def in_parallel(monkeypatch):
    """A function that makes predict_bar and fit_all run on a fresh pool of
    at least two threads, with predict_bar's gate at ``gate`` multiply-adds
    (by default every exact_gram one passes it) and the BLAS taken to be on
    one thread; fit_all keeps its own gate, blocks of one machine. Unless
    ``take_back``, a caller cannot cancel a pool call it has reached, so
    every call handed to the pool runs there, however late the pool starts
    it. It returns the list each pool task appends its thread and NumPy
    error state to. The pool is shut down after the test."""
    made = []

    def start(gate=0, take_back=False):
        tasks = []
        cpus = max(2, dnc._cpus())
        pool_call = dnc._pool_call

        def recording(*args):
            tasks.append((threading.current_thread(), np.geterr()))
            return pool_call(*args)

        monkeypatch.setattr(dnc, "_POOL", None)
        monkeypatch.setattr(dnc, "_cpus", lambda: cpus)
        monkeypatch.setattr(dnc, "_PARALLEL_MADDS", gate)
        monkeypatch.setattr(dnc, "_blas_on_one_thread", lambda: True)
        monkeypatch.setattr(dnc, "_pool_call", recording)
        if not take_back:
            monkeypatch.setattr(Future, "cancel", lambda self: False)
        made.append(True)
        return tasks

    yield start
    if made and dnc._POOL is not None:
        dnc._POOL.shutdown()


def _large_estimate(case):
    """An exact_gram estimate whose cross-grams pass the gate, and its grid:
    21 machines of 97 points on the 64 x 64 grid, or 64 of 8 on 512 points."""
    model, spec, N, s = {
        "additive": ("additive2d", additive(2, 2, M=200), 2048, 21),
        "spline": ("spline1d", smoothing_spline(2, M=340), 512, 64),
    }[case]
    data = simlab.generate(model, N, seed=5, c=1.0)
    est = fit_all(spec, data, partition(data, s, seed=5), lam=1e-4, solve_path="exact_gram")
    return est, simlab._eval_grid(spec.d, {"additive": 64, "spline": 512}[case])


def _fork_child(est, grid, conn):
    conn.send(predict_bar(est, grid).tobytes())
    conn.close()


class TestMachinePool:
    @pytest.mark.parametrize("pending", [None, 5], ids=["one-round", "five-machine-slices"])
    @pytest.mark.parametrize("case", ["additive", "spline"])
    def test_above_the_gate_equals_the_ordered_fold_and_the_serial_bits(
        self, case, pending, in_parallel, monkeypatch
    ):
        # five-machine slices take several rounds, the last one short
        est, grid = _large_estimate(case)
        folded = sum(predict(est.spec, f, grid) for f in est.fits) / est.s
        tasks = in_parallel(gate=dnc._PARALLEL_MADDS)
        if pending:
            monkeypatch.setattr(dnc, "_PENDING_VALUES", pending * len(grid))
        parallel = predict_bar(est, grid)
        assert len(tasks) >= (2 if pending else 1)
        assert np.array_equal(parallel, folded)
        ran = len(tasks)
        # serial: below the gate, with an OpenBLAS on more than one thread, on one CPU
        for name, value in [("_PARALLEL_MADDS", np.inf), ("_blas_on_one_thread", lambda: False)]:
            with monkeypatch.context() as m:
                m.setattr(dnc, name, value)
                assert np.array_equal(predict_bar(est, grid), parallel)
        with monkeypatch.context() as m:
            m.setattr(dnc, "_POOL", None)
            m.setattr(dnc, "_cpus", lambda: 1)
            assert np.array_equal(predict_bar(est, grid), parallel)
            assert dnc._POOL is None
        assert len(tasks) == ran

    def test_runs_in_parallel_only_with_openblas_on_one_thread(self, in_parallel, monkeypatch):
        # pool threads beside OpenBLAS threads would compete for the cores
        blas_on_one_thread = dnc._blas_on_one_thread
        libs = simlab._openblas_libraries()
        if not libs:
            pytest.skip("no OpenBLAS library in this process")
        spec, est, grid = TestPredictBar._fit("periodic_sobolev-exact_gram")
        expected = sum(predict(spec, f, grid) for f in est.fits) / est.s
        tasks = in_parallel()
        monkeypatch.setattr(dnc, "_blas_on_one_thread", blas_on_one_thread)
        before = {name: get() for name, (get, _) in libs.items()}
        try:
            for _, put in libs.values():
                put(2)
            assert np.array_equal(predict_bar(est, grid), expected)
            assert not tasks
            with simlab._one_blas_thread():
                assert np.array_equal(predict_bar(est, grid), expected)
            assert tasks
        finally:
            for name, (_, put) in libs.items():
                put(before[name])
        # and never with another BLAS, whose thread count is unknown
        monkeypatch.setattr(dnc, "_openblas_libraries", lambda: {})
        assert not dnc._blas_on_one_thread()

    def test_a_pool_task_sees_the_callers_error_state(self, in_parallel):
        spec, est, grid = TestPredictBar._fit("periodic_sobolev-exact_gram")
        tasks = in_parallel()
        with np.errstate(over="raise"):
            predict_bar(est, grid)
        assert tasks
        for thread, state in tasks:
            assert thread is not threading.main_thread()
            assert state["over"] == "raise"
        assert np.geterr()["over"] != "raise"

    def test_an_error_in_a_pool_slice_reaches_the_caller(self, in_parallel, monkeypatch):
        spec, est, grid = TestPredictBar._fit("periodic_sobolev-exact_gram")
        expected = sum(predict(spec, f, grid) for f in est.fits) / est.s
        tasks = in_parallel()
        pool_call = dnc._pool_call

        def failing(*args):
            pool_call(*args)
            raise RuntimeError("slice failed")

        monkeypatch.setattr(dnc, "_pool_call", failing)
        with pytest.raises(RuntimeError, match="slice failed"):
            predict_bar(est, grid)
        assert tasks
        monkeypatch.setattr(dnc, "_pool_call", pool_call)
        assert np.array_equal(predict_bar(est, grid), expected)

    def test_concurrent_callers_share_one_pool_and_keep_their_bits(self, in_parallel, monkeypatch):
        # more callers than cores, switching threads often, race to create
        # the pool (whose constructor is slowed to widen the race) and share
        # it: one pool is made and every result is exact
        spec, est, grid = TestPredictBar._fit("periodic_sobolev-exact_gram")
        expected = predict_bar(est, grid)
        tasks = in_parallel()
        made = []

        class Counting(dnc.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                time.sleep(0.01)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dnc, "ThreadPoolExecutor", Counting)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                results = list(callers.map(lambda _: predict_bar(est, grid), range(32)))
        finally:
            sys.setswitchinterval(switch)
            for pool in made:
                pool.shutdown()
        assert len(made) == 1 and len(tasks) >= 32
        assert all(np.array_equal(r, expected) for r in results)

    def test_a_forked_child_runs_its_own_pool(self, in_parallel):
        # the child's copy of the parent's pool has no threads; without a
        # fresh one its first parallel predict_bar would wait forever
        spec, est, grid = TestPredictBar._fit("periodic_sobolev-exact_gram")
        in_parallel()
        expected = predict_bar(est, grid)
        assert dnc._POOL is not None
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fork_child, args=(est, grid, send))
        child.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child sent no values within 60 s"
            values = np.frombuffer(receive.recv(), dtype=np.float64)
            child.join(60)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert np.array_equal(values, expected)


def _wide_machines(s, n, seed=0, constant=()):
    """``s`` machines of ``n`` points, machine ``j`` rows ``j n .. (j + 1) n - 1``
    of the sample; the machines in ``constant`` have every point at x = 1/2,
    where the spline's null function sqrt(12) (x - 1/2) vanishes, so their
    systems are singular."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=(s, n))
    xs[list(constant)] = 0.5
    data = Dataset(xs=xs.reshape(-1), ys=rng.standard_normal(s * n))
    return data, Partition(assignment=np.arange(s * n).reshape(s, n))


DCKRR_MODULES = ("spectra", "solver", "dnc", "inference", "rates", "simlab", "cli")


def _public_function_calls(monkeypatch):
    """Wrap every public function of the ``dckrr`` modules in every module
    namespace that binds it, as the benchmark's tracer does, and return the
    list each call appends its name and thread to."""
    modules = [importlib.import_module(f"dckrr.{name}") for name in DCKRR_MODULES]
    calls, wrappers = [], {}

    def wrap(name, fn):
        def recording(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return recording

    for mod in modules:
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = wrap(f"{mod.__name__}.{attr}", obj)
    for mod in (importlib.import_module("dckrr"), *modules):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[obj])
    return calls


class TestFitAllPool:
    # five machines of 300 points: blocks of one machine (n > _BLOCK_ROWS //
    # 2), an odd count of them, so with two threads the last round is the
    # caller's alone and two blocks run on the pool
    S, ROWS = 5, dnc._BLOCK_ROWS // 2 + 44

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    @pytest.mark.parametrize("make_spec", [
        lambda: smoothing_spline(2, M=48), lambda: periodic_sobolev(2, M=48),
    ], ids=["spline", "periodic"])
    def test_on_the_pool_every_fit_equals_the_serial_one(self, make_spec, path, in_parallel,
                                                         monkeypatch):
        spec = make_spec()
        data, part = _wide_machines(self.S, self.ROWS, seed=3)
        with monkeypatch.context() as m:
            m.setattr(dnc, "_blas_on_one_thread", lambda: False)
            serial = fit_all(spec, data, part, lam=1e-4, solve_path=path)
        tasks = in_parallel()
        parallel = fit_all(spec, data, part, lam=1e-4, solve_path=path)
        assert len(tasks) == self.S // 2
        assert all(thread is not threading.main_thread() for thread, _ in tasks)
        assert np.array_equal(parallel.beta, serial.beta)
        assert np.array_equal(parallel.coeffs, serial.coeffs)
        for a, b in zip(parallel.fits, serial.fits, strict=True):
            for name in ("beta", "alpha", "theta", "features"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None) == (y is None), name
                assert x is None or np.array_equal(x, y), name

    def test_runs_serially_below_the_gate_with_threaded_blas_or_one_cpu(self, in_parallel,
                                                                         monkeypatch):
        spec = smoothing_spline(2, M=48)
        tasks = in_parallel()
        small = _wide_machines(4 * self.S, dnc._BLOCK_ROWS // 2, seed=4)  # blocks of two
        one_block = _wide_machines(1, self.ROWS, seed=4)
        wide = _wide_machines(self.S, self.ROWS, seed=4)
        for data, part in (small, one_block):
            fit_all(spec, data, part, lam=1e-4, solve_path="truncated_feature")
        assert not tasks
        expected = fit_all(spec, *wide, lam=1e-4, solve_path="truncated_feature")
        ran = len(tasks)
        assert ran
        with monkeypatch.context() as m:
            m.setattr(dnc, "_blas_on_one_thread", lambda: False)
            est = fit_all(spec, *wide, lam=1e-4, solve_path="truncated_feature")
            assert np.array_equal(est.coeffs, expected.coeffs)
        with monkeypatch.context() as m:
            m.setattr(dnc, "_POOL", None)
            m.setattr(dnc, "_cpus", lambda: 1)
            est = fit_all(spec, *wide, lam=1e-4, solve_path="truncated_feature")
            assert np.array_equal(est.coeffs, expected.coeffs)
            assert dnc._POOL is None
        assert len(tasks) == ran

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    @pytest.mark.parametrize("bad, first_on_pool", [((0, 1), False), ((1, 2), True)],
                             ids=["caller-first", "pool-first"])
    def test_raises_the_first_failure_in_machine_order(self, bad, first_on_pool, path,
                                                       in_parallel, monkeypatch):
        # with two threads, machines 0, 2, 4 are fitted on the caller and 1, 3
        # on the pool; machines 0 and 1 fail at once, 1 and 2 in turn
        spec = smoothing_spline(2, M=48)
        data, part = _wide_machines(self.S, self.ROWS, seed=5, constant=bad)
        with monkeypatch.context() as m:
            m.setattr(dnc, "_blas_on_one_thread", lambda: False)
            with pytest.raises(np.linalg.LinAlgError) as serial:
                fit_all(spec, data, part, lam=1e-4, solve_path=path)
        tasks = in_parallel()
        with pytest.raises(np.linalg.LinAlgError) as parallel:
            fit_all(spec, data, part, lam=1e-4, solve_path=path)
        assert tasks
        assert str(parallel.value) == str(serial.value)
        frames = {frame.name for frame in traceback.extract_tb(parallel.tb)}
        assert ("_pool_call" in frames) == first_on_pool

    def test_a_sweep_counts_and_reports_failures_as_in_serial(self, in_parallel, monkeypatch):
        # 4 machines of 300 points; a replication whose points all sit at
        # x = 1/2 fails in every machine
        generate = simlab.generate

        def degenerate_at(failing):
            def gen(model, N, seed, c):
                data = generate(model, N, seed, c)
                return Dataset(xs=np.full(N, 0.5), ys=data.ys) if seed in failing else data
            return gen

        def sweep(failing):
            monkeypatch.setattr(simlab, "generate", degenerate_at(failing))
            cfg = simlab.SweepConfig(N_list=(1200,), rho_list=(0.2,), replications=10)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    cell = simlab.run_sweep(cfg).cells[0]
                except simlab.SweepError as exc:
                    return str(exc), str(exc.__cause__), []
            return cell.failures, cell.mse_mean, [str(w.message) for w in caught]

        with monkeypatch.context() as m:
            m.setattr(dnc, "_blas_on_one_thread", lambda: False)
            serial = [sweep({3}), sweep({3, 7})]
        tasks = in_parallel()
        assert [sweep({3}), sweep({3, 7})] == serial
        assert tasks
        assert serial[0][0] == 1 and "1 replications failed" in serial[0][2][0]
        assert "2/10 replications failed" in serial[1][0]

    def test_a_sweep_on_several_workers_runs_its_machines_in_turn(self, in_parallel):
        # the workers fill the cores: neither fit_all (4 machines of 300
        # points) nor predict_bar uses the pool under them, and the cells are
        # the one-worker sweep's
        tasks = in_parallel()
        cells = {}
        for workers in (2, 1):
            cfg = simlab.SweepConfig(N_list=(1200,), rho_list=(0.2,), replications=4,
                                     workers=workers, solve_path="exact_gram")
            cells[workers] = simlab.run_sweep(cfg).cells
            assert bool(tasks) == (workers == 1)
        assert cells[2] == cells[1]
        assert not dnc._MACHINES_IN_TURN.get()

    def test_concurrent_callers_keep_their_fits(self, in_parallel):
        # more callers than cores, switching threads often, share the pool
        # and take back the calls it has not started; every estimate has the
        # serial bits
        spec = smoothing_spline(2, M=48)
        data, part = _wide_machines(self.S, self.ROWS, seed=7)
        expected = fit_all(spec, data, part, lam=1e-4, solve_path="truncated_feature")
        tasks = in_parallel(take_back=True)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                results = list(callers.map(
                    lambda _: fit_all(spec, data, part, lam=1e-4, solve_path="truncated_feature"),
                    range(16)))
        finally:
            sys.setswitchinterval(switch)
        assert len(tasks) <= 16 * (self.S // 2)
        for est in results:
            assert np.array_equal(est.coeffs, expected.coeffs)
            assert np.array_equal(est.beta, expected.beta)

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_a_caller_runs_the_calls_the_pool_has_not_started(self, path, in_parallel):
        # the pool's one thread is held, so each of more callers than pool
        # threads takes back every call it handed to the pool and runs it
        # itself, in order: the fits, the grid values and the first failure
        # are the serial ones, and no call waits on the pool
        spec = smoothing_spline(2, M=48)
        data, part = _wide_machines(self.S, self.ROWS, seed=8)
        bad = _wide_machines(self.S, self.ROWS, seed=8, constant=(1, 3))
        grid = simlab._eval_grid(1, 512)
        expected = fit_all(spec, data, part, lam=1e-4, solve_path=path)
        values = predict_bar(expected, grid)
        with pytest.raises(np.linalg.LinAlgError) as serial:
            fit_all(spec, *bad, lam=1e-4, solve_path=path)
        tasks = in_parallel(take_back=True)
        release = threading.Event()
        held = dnc._pool().submit(release.wait, 30)  # a caller that waited fails, not hangs
        assert dnc._threads(dnc._POOL) == 2
        try:
            with ThreadPoolExecutor(4) as callers:
                results = list(callers.map(
                    lambda _: fit_all(spec, data, part, lam=1e-4, solve_path=path), range(8)))
            assert all(np.array_equal(predict_bar(est, grid), values) for est in results)
            with pytest.raises(np.linalg.LinAlgError) as parallel:
                fit_all(spec, *bad, lam=1e-4, solve_path=path)
            assert not held.done()
        finally:
            release.set()
        held.result()
        assert not tasks
        assert str(parallel.value) == str(serial.value)
        for est in results:
            assert np.array_equal(est.coeffs, expected.coeffs)
            assert np.array_equal(est.beta, expected.beta)

    def test_a_pool_task_calls_no_public_function(self, in_parallel, monkeypatch):
        # the benchmark's tracer wraps each public function and keeps one
        # span stack for all threads: a pool task that reached one would
        # corrupt it
        spec = smoothing_spline(2, M=340)
        data, part = _wide_machines(self.S, self.ROWS, seed=6)
        tasks = in_parallel()
        calls = _public_function_calls(monkeypatch)
        for path in SOLVE_PATHS:
            est = dnc.fit_all(spec, data, part, lam=1e-4, solve_path=path)
            dnc.predict_bar(est, simlab._eval_grid(1, 512))
        # two pool blocks per fit_all, and predict_bar's second slice of
        # exact_gram machines
        assert len(tasks) == 2 * (self.S // 2) + 1
        assert {"dckrr.dnc.fit_all", "dckrr.dnc.predict_bar"} <= {name for name, _ in calls}
        assert {thread for _, thread in calls} == {threading.main_thread()}


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
