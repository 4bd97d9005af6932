"""Unit tests for the simulation lab."""

import math
import warnings

import numpy as np
import pytest

from dckrr import dnc, inference, rates, simlab, solver, spectra
from dckrr.inference import test_statistic as wald_test
from dckrr.simlab import (
    MODELS,
    SweepConfig,
    SweepError,
    generate,
    mse_of_estimate,
    run_sweep,
    signal,
)
from dckrr.spectra import additive, periodic_sobolev


class TestSignal:
    def test_spline1d_values(self):
        # oracle: 0.6 sin(1.5 pi x)
        assert signal("spline1d", np.array([0.5]))[0] == pytest.approx(
            0.6 * math.sin(0.75 * math.pi), rel=1e-14
        )
        assert signal("spline1d", np.array([0.0]))[0] == 0.0

    def test_additive2d_values(self):
        # oracle: 0.4 sin(1.5 pi x1) + 0.1 (0.5 - x2)^3
        val = signal("additive2d", np.array([[0.25, 0.5]]))[0]
        assert val == pytest.approx(0.4 * math.sin(0.375 * math.pi), rel=1e-14)
        val2 = signal("additive2d", np.array([[0.0, 0.0]]))[0]
        assert val2 == pytest.approx(0.1 * 0.125, rel=1e-14)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            signal("bogus", np.array([0.5]))

    @pytest.mark.parametrize("model, X", [
        ("spline1d", np.full((5, 2), 0.25)),  # would read column 0 only
        ("additive2d", [[0.1, 0.2, 0.3]]),  # would drop the third coordinate
    ], ids=["spline1d-2d-points", "additive2d-3d-points"])
    def test_points_of_another_dimension_are_refused(self, model, X):
        with pytest.raises(ValueError, match="points must be"):
            signal(model, X)


class TestGenerate:
    def test_deterministic_in_seed(self):
        d1 = generate("spline1d", 100, seed=5)
        d2 = generate("spline1d", 100, seed=5)
        d3 = generate("spline1d", 100, seed=6)
        assert np.array_equal(d1.xs, d2.xs) and np.array_equal(d1.ys, d2.ys)
        assert not np.array_equal(d1.xs, d3.xs)

    def test_shapes(self):
        d1 = generate("spline1d", 50, seed=0)
        d2 = generate("additive2d", 50, seed=0)
        assert d1.xs.shape == (50,)
        assert d2.xs.shape == (50, 2)

    def test_noise_moments(self):
        data = generate("spline1d", 100_000, seed=1, c=0.0)
        assert abs(float(np.mean(data.ys))) < 0.02
        assert float(np.var(data.ys)) == pytest.approx(1.0, abs=0.02)

    def test_scaling_in_c(self):
        a = generate("spline1d", 200, seed=2, c=0.0)
        b = generate("spline1d", 200, seed=2, c=2.0)
        np.testing.assert_allclose(b.ys - a.ys, 2.0 * signal("spline1d", a.xs), atol=1e-12)


class TestMse:
    def _zero_estimate(self, model="spline1d"):
        # fit pure-zero data so predict_bar is exactly zero
        n = 64
        if model == "spline1d":
            xs = (np.arange(n) + 0.5) / n
        else:
            axis = (np.arange(8) + 0.5) / 8
            g1, g2 = np.meshgrid(axis, axis, indexing="ij")
            xs = np.column_stack([g1.ravel(), g2.ravel()])
        data = dnc.Dataset(xs=xs, ys=np.zeros(n))
        part = dnc.partition(data, s=1, seed=0)
        spec = periodic_sobolev(2, M=32) if model == "spline1d" else additive(2, 2, M=32)
        return dnc.fit_all(spec, data, part, lam=1e-3, solve_path="truncated_feature")

    def test_zero_estimate_zero_truth(self):
        est = self._zero_estimate()
        assert mse_of_estimate(est, "spline1d", c=0.0) == pytest.approx(0.0, abs=1e-25)

    def test_zero_estimate_unit_signal(self):
        # quadrature oracle: mean of (0.6 sin(1.5 pi x))^2 over [0,1] = 0.18
        est = self._zero_estimate()
        assert mse_of_estimate(est, "spline1d", c=1.0) == pytest.approx(0.18, abs=2e-3)

    def test_grid_refinement_stable(self):
        est = self._zero_estimate()
        v1 = mse_of_estimate(est, "spline1d", c=1.0, grid_size=512)
        v2 = mse_of_estimate(est, "spline1d", c=1.0, grid_size=2048)
        assert v1 == pytest.approx(v2, abs=1e-4)

    def test_validation(self):
        est = self._zero_estimate()
        with pytest.raises(ValueError):
            mse_of_estimate(est, "spline1d", c=1.0, grid_size=1)

    def test_grid_is_the_d_fold_midpoint_product(self):
        # 1-D points stay flat, as generate's design: the benchmark's spline
        # check reads predict_bar's points as (n,)
        axis = (np.arange(4) + 0.5) / 4
        assert np.array_equal(simlab._eval_grid(1, 4), axis)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        assert np.array_equal(simlab._eval_grid(2, 4), np.column_stack([g1.ravel(), g2.ravel()]))
        grid = simlab._eval_grid(3, 4)
        assert grid.shape == (64, 3)
        assert np.array_equal(grid[:4], np.column_stack([np.full(4, axis[0])] * 2 + [axis]))


class TestSweepConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SweepConfig(model="bogus")
        with pytest.raises(ValueError):
            SweepConfig(replications=0)
        with pytest.raises(ValueError):
            SweepConfig(rho_list=(1.5,))
        with pytest.raises(ValueError):
            SweepConfig(lambda_source="explicit")  # missing lambda_value
        with pytest.raises(ValueError):
            SweepConfig(sigma2_mode="bogus")

    def test_spline1d_rejects_orders_without_smoothing_spline(self):
        with pytest.raises(ValueError, match="^m must be 2 for spline1d, got m=3$"):
            SweepConfig(model="spline1d", m=3)
        SweepConfig(model="additive2d", m=3)  # the periodic additive family takes any m

    @pytest.mark.parametrize("model", MODELS)
    def test_rejects_m_1(self, model):
        # with mu_k ~ k^-2 every realistic cell would fail with TruncationError;
        # each model states its one rule
        message = {"spline1d": "m must be 2 for spline1d, got m=1",
                   "additive2d": "m must be >= 2, got 1"}[model]
        with pytest.raises(ValueError) as exc:
            SweepConfig(model=model, m=1)
        assert str(exc.value) == message

    def test_spline1d_fitted_in_smoothing_spline_family(self):
        cfg = SweepConfig(model="spline1d")
        spec = spectra.spectrum_for(cfg.family, cfg.m, cfg.d, 1e-6)
        assert spec.family == "smoothing_spline" and spec.null_dim == 2

    def test_family_mapping(self):
        assert SweepConfig(model="spline1d").family == "spline"
        assert SweepConfig(model="additive2d").family == "additive"
        assert SweepConfig(model="additive2d").d == 2


class TestRunSweep:
    def test_cell_matches_hand_driven_pipeline(self):
        cfg = SweepConfig(
            model="spline1d", c=0.6, N_list=(256,), rho_list=(0.3,),
            replications=3, base_seed=11,
        )
        result = run_sweep(cfg)
        cell = result.cells[0]
        s = max(1, math.floor(256**0.3 + 0.5))
        n = 256 // s
        assert cell.s == s and cell.n == n
        rx = rates.prescribe("spline", 2, 1, n, "testing")
        assert cell.lam == rx.lam
        # replicate by hand
        mses, rejects = [], []
        spec = spectra.spectrum_for(cfg.family, cfg.m, cfg.d, cell.lam)
        for r in range(3):
            data = generate("spline1d", 256, seed=11 + r, c=0.6)
            part = dnc.partition(data, s, seed=11 + r)
            est = dnc.fit_all(spec, data, part, cell.lam, "truncated_feature")
            mses.append(mse_of_estimate(est, "spline1d", 0.6))
            rep = wald_test(est, N=part.N_effective, sigma2=1.0, alpha=0.05)
            rejects.append(1.0 if rep.reject else 0.0)
        assert cell.mse_mean == pytest.approx(float(np.mean(mses)), rel=1e-14)
        assert cell.reject_rate == pytest.approx(float(np.mean(rejects)), rel=1e-14)
        assert cell.reps == 3 and cell.failures == 0

    def test_worker_count_invariant(self):
        cfg1 = SweepConfig(N_list=(128,), rho_list=(0.3,), replications=4, workers=1)
        cfg4 = SweepConfig(N_list=(128,), rho_list=(0.3,), replications=4, workers=4)
        r1, r4 = run_sweep(cfg1), run_sweep(cfg4)
        c1, c4 = r1.cells[0], r4.cells[0]
        assert c1.mse_mean == c4.mse_mean
        assert c1.reject_rate == c4.reject_rate

    def test_explicit_lambda_used_verbatim(self):
        cfg = SweepConfig(
            N_list=(128,), rho_list=(0.2,), replications=2,
            lambda_source="explicit", lambda_value=1e-3,
        )
        assert run_sweep(cfg).cells[0].lam == 1e-3

    def test_grid_covers_all_cells(self):
        cfg = SweepConfig(N_list=(64, 128), rho_list=(0.2, 0.4), replications=2)
        result = run_sweep(cfg)
        assert len(result.cells) == 4
        assert {(c.N, c.rho) for c in result.cells} == {(64, 0.2), (64, 0.4), (128, 0.2), (128, 0.4)}

    def test_failure_threshold_raises(self, monkeypatch):
        calls = {"k": 0}
        orig = simlab._run_replication

        def flaky(cfg, N, s, lam, spec, seed):
            calls["k"] += 1
            if calls["k"] % 2 == 0:
                raise np.linalg.LinAlgError("synthetic failure")
            return orig(cfg, N, s, lam, spec, seed)

        monkeypatch.setattr(simlab, "_run_replication", flaky)
        cfg = SweepConfig(N_list=(64,), rho_list=(0.3,), replications=4)
        with pytest.raises(SweepError, match="2/4 replications failed; "
                           "the first: LinAlgError: synthetic failure$") as exc:
            run_sweep(cfg)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_rare_failures_warn_but_survive(self, monkeypatch):
        orig = simlab._run_replication
        state = {"k": 0}

        def once(cfg, N, s, lam, spec, seed):
            state["k"] += 1
            if state["k"] == 1:
                raise np.linalg.LinAlgError("synthetic failure")
            return orig(cfg, N, s, lam, spec, seed)

        monkeypatch.setattr(simlab, "_run_replication", once)
        cfg = SweepConfig(N_list=(64,), rho_list=(0.3,), replications=20)
        with pytest.warns(UserWarning):
            result = run_sweep(cfg)
        assert result.cells[0].failures == 1
        assert result.cells[0].reps == 19

    def test_not_positive_definite_fit_is_a_counted_failure(self, monkeypatch):
        # one replication's design sits at x = 1/2, where the null function
        # sqrt(12) (x - 1/2) vanishes, so its normal equations are singular
        real = simlab.generate

        def degenerate_seed_0(model, N, seed, c=1.0):
            data = real(model, N, seed, c)
            return dnc.Dataset(xs=np.full(N, 0.5), ys=data.ys) if seed == 0 else data

        monkeypatch.setattr(simlab, "generate", degenerate_seed_0)
        cfg = SweepConfig(N_list=(64,), rho_list=(0.3,), replications=10,
                          solve_path="truncated_feature")
        s = max(1, math.floor(64**0.3 + 0.5))
        lam = simlab._cell_lambda(cfg, 64 // s)
        with pytest.raises(np.linalg.LinAlgError):
            spec = spectra.spectrum_for(cfg.family, cfg.m, cfg.d, lam)
            simlab._run_replication(cfg, 64, s, lam, spec, seed=0)
        with pytest.warns(UserWarning, match="1 replications failed"):
            result = run_sweep(cfg)
        assert result.cells[0].failures == 1 and result.cells[0].reps == 9

    def test_machines_smaller_than_the_null_space_fail_before_any_replication(self, monkeypatch):
        # N=64, rho=0.95: s=52 machines of n=1 point against {1, x}
        calls = []
        monkeypatch.setattr(simlab, "_run_replication", lambda *args: calls.append(args))
        cfg = SweepConfig(N_list=(64,), rho_list=(0.95,), replications=3)
        with pytest.raises(SweepError, match=r"N=64, rho=0.95: .*n=1 .*null_dim=2"):
            run_sweep(cfg)
        assert calls == []

    def test_an_unrunnable_later_cell_fails_before_any_replication(self, monkeypatch):
        # rho=0.3 runs (s=3, n=21), but rho=0.99 leaves s=61 machines of n=1
        # point: every cell is resolved before the first replication runs
        calls = []

        def record(*args):
            calls.append(args)
            return 0.0, 0.0

        monkeypatch.setattr(simlab, "_run_replication", record)
        cfg = SweepConfig(N_list=(64,), rho_list=(0.3, 0.99), replications=3)
        with pytest.raises(SweepError, match=r"N=64, rho=0.99: .*n=1 .*null_dim=2"):
            run_sweep(cfg)
        assert calls == []

    def test_machines_as_large_as_the_null_space_run(self):
        # N=64, rho=0.8: s=28 machines of n=2 points
        cell = run_sweep(SweepConfig(N_list=(64,), rho_list=(0.8,), replications=3)).cells[0]
        assert (cell.n, cell.reps, cell.failures) == (2, 3, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_programming_errors_propagate(self, monkeypatch, workers):
        # only numerical failures are counted; a bug is raised, not absorbed
        def buggy(cfg, N, s, lam, spec, seed):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(simlab, "_run_replication", buggy)
        cfg = SweepConfig(N_list=(64,), rho_list=(0.3,), replications=4, workers=workers)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_sweep(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("error", [spectra.TruncationError, FloatingPointError])
    def test_an_error_other_than_linalg_in_a_replication_propagates_uncounted(
            self, monkeypatch, error, workers):
        # the cell's spectrum already passed the truncation check a
        # replication repeats, and a sweep never raises on floating-point
        # errors, so either raised in a replication is a bug
        def failing(cfg, N, s, lam, spec, seed):
            raise error("synthetic failure")

        monkeypatch.setattr(simlab, "_run_replication", failing)
        cfg = SweepConfig(N_list=(64,), rho_list=(0.3,), replications=4, workers=workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="synthetic failure"):
                run_sweep(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_value_error_in_a_stage_propagates_uncounted(self, monkeypatch, workers):
        # a shape bug raises ValueError, which is not a numerical failure
        calls = []

        def shape_bug(est, model, c, grid_size=None):
            calls.append(model)
            raise ValueError("synthetic shape bug")

        monkeypatch.setattr(simlab, "mse_of_estimate", shape_bug)
        cfg = SweepConfig(N_list=(64,), rho_list=(0.3,), replications=20, workers=workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "replications failed" warning either
            with pytest.raises(ValueError, match="synthetic shape bug"):
                run_sweep(cfg)
        assert calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_callers_error_state_changes_no_cell(self, workers):
        # the sweep runs in numpy's default error state, the one its pool
        # threads start in; the spline's caches are emptied so the underflow
        # of exp(-b) at its high frequencies runs under the caller's state
        cfg = SweepConfig(N_list=(512,), rho_list=(0.3, 0.75), replications=4, workers=workers)
        for cached in (spectra._beam_roots, spectra._spline_freqs, spectra._beam_coeffs):
            cached.cache_clear()
        with np.errstate(all="raise"):
            raised = run_sweep(cfg).cells
        assert raised == run_sweep(cfg).cells

    def test_nonpositive_plugin_degrees_of_freedom_are_counted(self):
        # N=64, rho=0.8: machines of n=2 points against {1, x} leave no
        # residual degrees of freedom, in every replication
        cfg = SweepConfig(N_list=(64,), rho_list=(0.8,), replications=3, sigma2_mode="plugin")
        with pytest.raises(SweepError, match="3/3 replications failed; the first: LinAlgError: "
                           "nonpositive residual degrees of freedom$") as exc:
            run_sweep(cfg)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_plugin_sigma2_runs(self):
        cfg = SweepConfig(
            N_list=(128,), rho_list=(0.3,), replications=2,
            sigma2_mode="plugin", solve_path="exact_gram",
        )
        result = run_sweep(cfg)
        assert 0.0 <= result.cells[0].reject_rate <= 1.0


class TestBlasThreads:
    @pytest.fixture
    def libs(self):
        libs = simlab._openblas_libraries()
        if not libs:
            pytest.skip("no OpenBLAS library in this process")
        before = {name: get() for name, (get, _) in libs.items()}
        for _, put in libs.values():
            put(2)  # a count other than one, which the sweep must restore
        yield libs
        for name, (_, put) in libs.items():
            put(before[name])

    @staticmethod
    def _counts(libs):
        return {name: get() for name, (get, _) in libs.items()}

    def _spy(self, libs, monkeypatch, fail: bool):
        seen, orig = [], simlab._run_replication

        def spy(*args):
            seen.append(self._counts(libs))
            if fail:
                raise np.linalg.LinAlgError("synthetic failure")
            return orig(*args)

        monkeypatch.setattr(simlab, "_run_replication", spy)
        return seen

    def test_one_thread_in_cells_restored_after_return(self, libs, monkeypatch):
        seen = self._spy(libs, monkeypatch, fail=False)
        result = run_sweep(SweepConfig(N_list=(64,), rho_list=(0.3,), replications=2, workers=2))
        ones = {name: 1 for name in libs}
        assert seen == [ones, ones] and result.blas_threads == ones
        assert self._counts(libs) == {name: 2 for name in libs}

    def test_restored_after_sweep_error(self, libs, monkeypatch):
        seen = self._spy(libs, monkeypatch, fail=True)
        with pytest.raises(SweepError):
            run_sweep(SweepConfig(N_list=(64,), rho_list=(0.3,), replications=2))
        assert seen == [{name: 1 for name in libs}] * 2
        assert self._counts(libs) == {name: 2 for name in libs}


def test_additive_plugin_replication_evaluates_each_basis_once(monkeypatch):
    # one basis evaluation per block of machines in fit_all, whose fits keep
    # it for their coefficients, predictions and residuals, and one at the
    # MSE grid; every evaluation, feature_matrix's included, passes through
    # spectra._feature_matrix, which the fits call directly
    cfg = SweepConfig(model="additive2d", N_list=(512,), rho_list=(0.4,), replications=1,
                      sigma2_mode="plugin", solve_path="exact_gram", lambda_task="estimation")
    s = max(1, math.floor(512**0.4 + 0.5))
    lam = simlab._cell_lambda(cfg, 512 // s)
    spec = spectra.spectrum_for(cfg.family, cfg.m, cfg.d, lam)
    calls, real = [], spectra._feature_matrix

    def counting(spec_, pts, out=None):
        calls.append(np.shape(pts))
        return real(spec_, pts, out)

    for module in (spectra, solver, dnc, inference):
        if hasattr(module, "_feature_matrix"):
            monkeypatch.setattr(module, "_feature_matrix", counting)
    simlab._run_replication(cfg, 512, s, lam, spec, seed=0)
    blocks = math.ceil(s / max(1, dnc._BLOCK_ROWS // (512 // s)))
    assert len(calls) == blocks + 1
