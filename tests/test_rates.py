"""Unit tests for the rate prescriptions."""

import math
import re
import warnings

import numpy as np
import pytest

from dckrr.rates import (
    FAMILIES,
    TASKS,
    leading_eigenvalue,
    prescribe,
)

MU1_SPLINE = (2 * math.pi) ** -4  # m = 2


class TestSplineExponents:
    def test_estimation_m2(self):
        rx = prescribe("spline", m=2, d=1, N=4096, task="estimation")
        assert rx.exponents["lambda_N"] == pytest.approx(-0.8)
        assert rx.exponents["s_max_N"] == pytest.approx(0.8)
        assert rx.exponents["rate_N"] == pytest.approx(-0.4)
        assert rx.lam == pytest.approx(MU1_SPLINE * 4096**-0.8, rel=1e-14)
        assert rx.rate == pytest.approx(4096**-0.4, rel=1e-14)

    def test_estimation_smax_value(self):
        rx = prescribe("spline", m=2, d=1, N=4096, task="estimation")
        assert rx.s_max == math.floor(4096**0.8 / math.log(4096)) == 93

    def test_testing_m2(self):
        rx = prescribe("spline", m=2, d=1, N=4096, task="testing")
        assert rx.exponents["lambda_N"] == pytest.approx(-8.0 / 9.0)
        assert rx.exponents["s_max_N"] == pytest.approx(5.0 / 9.0)
        assert rx.exponents["rate_N"] == pytest.approx(-4.0 / 9.0)

    def test_rho_max_value(self):
        assert prescribe("spline", 2, 1, 4096, "estimation").rho_max == pytest.approx(
            math.log(93) / math.log(4096), rel=1e-12
        )

    def test_rho_max_is_the_prescriptions(self):
        rx = prescribe("spline", 2, 1, 4096, "testing")
        assert rx.rho_max == math.log(rx.s_max) / math.log(4096)

    def test_rho_max_approaches_exponent(self):
        tight = prescribe("spline", 2, 1, 10**12, "estimation").rho_max
        loose = prescribe("spline", 2, 1, 4096, "estimation").rho_max
        # the log factor washes out: rho_max creeps toward the 0.8 exponent
        assert loose < tight < 0.8

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_estimation_allows_more_machines_than_testing(self, m):
        est = prescribe("spline", m=m, d=1, N=8192, task="estimation")
        tst = prescribe("spline", m=m, d=1, N=8192, task="testing")
        assert est.s_max >= tst.s_max


class TestAdditive:
    def test_d1_matches_spline(self):
        for task in TASKS:
            a = prescribe("additive", m=2, d=1, N=2048, task=task)
            s = prescribe("spline", m=2, d=1, N=2048, task=task)
            assert a.lam == s.lam
            assert a.s_max == s.s_max
            assert a.rate == s.rate

    def test_estimation_d_scaling(self):
        r1 = prescribe("additive", m=2, d=1, N=4096, task="estimation")
        r4 = prescribe("additive", m=2, d=4, N=4096, task="estimation")
        assert r4.rate == pytest.approx(2.0 * r1.rate, rel=1e-12)  # sqrt(d)
        assert r4.lam == r1.lam  # no d-dependence in lambda
        assert r4.s_max <= r1.s_max  # bound scales like 1/d

    def test_testing_d_exponents(self):
        rx = prescribe("additive", m=2, d=3, N=4096, task="testing")
        assert rx.exponents["lambda_d"] == pytest.approx(-4.0 / 9.0)
        assert rx.exponents["s_max_d"] == pytest.approx(-20.0 / 9.0)
        assert rx.exponents["rate_d"] == pytest.approx(5.0 / 18.0)
        assert rx.lam == pytest.approx(
            MU1_SPLINE * 3 ** (-4.0 / 9.0) * 4096 ** (-8.0 / 9.0), rel=1e-12
        )

    def test_dimension_bound_warning(self):
        with pytest.warns(UserWarning):
            rx = prescribe("additive", m=2, d=50, N=64, task="testing")
        assert rx.warnings

    def test_small_d_no_warning(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            prescribe("additive", m=2, d=2, N=8192, task="estimation")


    def test_first_warning_dimension_is_the_printed_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rxs = [prescribe("additive", 2, d, 4096, "testing") for d in range(1, 20)]
        first = next(rx for rx in rxs if rx.warnings)
        bound = float(re.search(r"bound \(~([^)]+)\)", first.warnings[0]).group(1))
        assert first.d == math.ceil(bound) == 4


class TestSobolevLambdaBits:
    """The spline and additive ``lambda`` that sweeps read, against the
    formulas ``MU1 * N**e`` (estimation) and ``MU1 * d**e_d * N**e``
    (testing) by ``==``: a change of evaluation order moves ``sweep.csv``."""

    @pytest.mark.parametrize("family, d", [("spline", 1), ("additive", 2)])
    @pytest.mark.parametrize("m", [2, 3])
    def test_lambda_bits(self, family, d, m):
        mu1 = (2.0 * math.pi) ** (-2 * m)
        e_est = -2.0 * m / (2 * m + 1)
        e_test, e_test_d = -4.0 * m / (4 * m + 1), -2.0 * m / (4 * m + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for N in range(4, 8193):
                assert prescribe(family, m, d, N, "estimation").lam == mu1 * N**e_est
                assert prescribe(family, m, d, N, "testing").lam == mu1 * d**e_test_d * N**e_test


class TestExponentsAreTheRule:
    CASES = [("spline", 2, 1), ("spline", 3, 1), ("additive", 2, 2), ("additive", 3, 5),
             ("gaussian", 0, 1), ("gaussian", 0, 3), ("thin_plate", 2, 2), ("thin_plate", 3, 2)]

    @pytest.mark.parametrize("family, m, d", CASES)
    @pytest.mark.parametrize("task", TASKS)
    def test_evaluating_the_exponents_gives_the_prescription(self, family, m, d, task):
        for N in (2, 64, 1000, 4096, 10**6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rx = prescribe(family, m, d, N, task)
            e = rx.exponents
            assert "s_max_log" in e
            assert set(e) <= {f"{q}_{k}" for q in ("lambda", "s_max", "rate") for k in ("N", "d", "log")}

            def power(q, coef):
                return coef * d ** e.get(f"{q}_d", 0) * N ** e.get(f"{q}_N", 0) * math.log(N) ** e.get(f"{q}_log", 0)

            assert rx.lam == power("lambda", leading_eigenvalue(family, m))
            assert rx.s_max == max(1, math.floor(power("s_max", 1.0)))
            assert rx.rate == power("rate", 1.0)


class TestGaussian:
    def test_estimation_formulas(self):
        N = 4096
        mu1 = leading_eigenvalue("gaussian", 0)
        rx = prescribe("gaussian", m=0, d=2, N=N, task="estimation")
        logN = math.log(N)
        assert rx.lam == pytest.approx(mu1 * math.sqrt(logN) / N, rel=1e-14)
        assert rx.s_max == max(1, math.floor(N / logN**5))
        assert rx.rate == pytest.approx(logN**0.25 / math.sqrt(N), rel=1e-14)

    def test_testing_formulas(self):
        N = 65536
        mu1 = leading_eigenvalue("gaussian", 0)
        rx = prescribe("gaussian", m=0, d=1, N=N, task="testing")
        logN = math.log(N)
        assert rx.lam == pytest.approx(mu1 * logN**0.25 / N, rel=1e-14)
        assert rx.s_max == math.floor(N / logN**4.5)
        assert rx.rate == pytest.approx(logN**0.125 / math.sqrt(N), rel=1e-14)

    def test_golden_leading_eigenvalue(self):
        q = (math.sqrt(5) - 1) / 2
        assert leading_eigenvalue("gaussian", 0) == pytest.approx(q**3, rel=1e-15)


class TestThinPlate:
    def test_estimation_exponents(self):
        rx = prescribe("thin_plate", m=2, d=2, N=4096, task="estimation")
        assert rx.exponents["lambda_N"] == pytest.approx(-2.0 / 3.0)
        assert rx.exponents["s_max_N"] == pytest.approx(4.0 / 24.0)
        assert rx.exponents["rate_N"] == pytest.approx(-1.0 / 3.0)

    def test_testing_exponents(self):
        rx = prescribe("thin_plate", m=2, d=2, N=4096, task="testing")
        assert rx.exponents["lambda_N"] == pytest.approx(-0.8)
        assert rx.exponents["s_max_N"] == pytest.approx((16 - 28 + 4) / 20.0)
        assert rx.exponents["rate_N"] == pytest.approx(-0.4)

    def test_smoothness_side_condition(self):
        with pytest.raises(ValueError):
            prescribe("thin_plate", m=1, d=2, N=1024, task="estimation")

    def test_nonpositive_smax_exponent_warns(self):
        with pytest.warns(UserWarning):
            rx = prescribe("thin_plate", m=2, d=2, N=4096, task="testing")
        assert rx.s_max == 1


class TestGeneralShape:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("task", TASKS)
    def test_lambda_decreasing_smax_nondecreasing(self, family, task):
        d = 2 if family in ("additive", "thin_plate") else 1
        import warnings as w

        rows = []
        with w.catch_warnings():
            w.simplefilter("ignore")
            for N in (256, 4096, 65536):
                rows.append(prescribe(family, m=2, d=d, N=N, task=task))
        lams = [r.lam for r in rows]
        smax = [r.s_max for r in rows]
        rates = [r.rate for r in rows]
        assert lams[0] > lams[1] > lams[2]
        assert smax[0] <= smax[1] <= smax[2]
        assert rates[0] > rates[1] > rates[2]

    def test_smax_at_least_one(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("ignore")
            rx = prescribe("thin_plate", m=3, d=5, N=16, task="testing")
        assert rx.s_max >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            prescribe("bogus", m=2, d=1, N=1024, task="estimation")
        with pytest.raises(ValueError):
            prescribe("spline", m=2, d=1, N=1024, task="bogus")
        with pytest.raises(ValueError):
            prescribe("spline", m=2, d=2, N=1024, task="estimation")
        with pytest.raises(ValueError):
            prescribe("spline", m=2, d=1, N=1, task="estimation")
