"""Wald-type inference for the averaged estimate.

The test statistic is the squared embedded norm of the averaged estimate,
``T = |f_bar|^2`` where ``|f|^2 = V(f, f) + lam * |f|_H^2
= sum_j beta_j^2 + sum_nu c_nu^2 (1 + lam/mu_nu)``, with ``beta`` the
coefficients of the unpenalized null space.
Under the null it concentrates at ``sigma^2 * h_inv / N`` with fluctuation
``sqrt(2 N (N-1) h_inv2) * sigma^2 / N^2``; the standardized statistic is
compared with the two-sided normal quantile. Every family is read from
``(beta, coeffs)``, the Gaussian through its Nyström eigenpairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dckrr.dnc import DncEstimate
from dckrr.solver import _fitted_and_scaled_basis, _ridge_trace
from dckrr.spectra import spectral_sums

__all__ = [
    "NormBreakdown",
    "TestReport",
    "norm_breakdown",
    "test_statistic",
    "estimate_sigma2",
]

@dataclass(frozen=True)
class NormBreakdown:
    """The two pieces of the embedded squared norm of an estimate."""

    v_part: float  # V(f, f) = integral of f^2 under the design measure
    h_part: float  # |f|_H^2 (the null space contributes zero seminorm)
    lam: float

    @property
    def total(self) -> float:
        return self.v_part + self.lam * self.h_part


@dataclass(frozen=True)
class TestReport:
    """Outcome of the Wald-type test of ``f = 0``."""

    statistic: float
    center: float
    scale: float
    z: float
    critical: float
    reject: bool


def norm_breakdown(est: DncEstimate) -> NormBreakdown:
    """Split ``|f_bar|^2`` into ``V(f, f) = |beta|^2 + sum_nu c_nu^2`` and
    ``|f|_H^2 = sum_nu c_nu^2 / mu_nu``, over the Mercer coefficients (for
    the Gaussian, of its Nyström pairs; see :func:`~dckrr.spectra.gaussian_rkhs`).
    """
    v = float(np.sum(est.beta**2)) + float(np.sum(est.coeffs**2))
    h = float(np.sum(est.coeffs**2 / est.spec.eigenvalues))
    return NormBreakdown(v_part=v, h_part=h, lam=est.lam)


def test_statistic(
    est: DncEstimate,
    N: int,
    sigma2: float = 1.0,
    alpha: float = 0.05,
) -> TestReport:
    """Wald-type test of the global null ``f = 0`` at level ``alpha``.

    ``N`` is the effective sample size ``s * n`` (``est.ys.size``); any
    other, which would mis-centre the test, raises ``ValueError``. The
    statistic is the embedded squared norm of the averaged estimate; its null
    center is ``sigma^2 * h_inv / N`` and its null scale ``sigma(N) / N^2``
    with ``sigma^2(N) = 2 sigma^4 N (N-1) h_inv2``. Rejects when ``|z|``
    exceeds the two-sided normal quantile.
    """
    if N < 2:
        raise ValueError("test requires N >= 2")
    if N != est.ys.size:
        raise ValueError(f"N={N} is not the estimate's s * n = {est.ys.size}")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sums = spectral_sums(est.spec, est.lam)
    T = norm_breakdown(est).total
    center = sigma2 * sums.h_inv / N
    scale = math.sqrt(2.0 * N * (N - 1) * sums.h_inv2) * sigma2 / N**2
    z = (T - center) / scale
    from scipy.special import ndtri  # deferred: it would add about 60 ms to ``import dckrr``

    crit = float(ndtri(1.0 - alpha / 2.0))
    return TestReport(
        statistic=T, center=center, scale=scale, z=z, critical=crit, reject=bool(abs(z) >= crit)
    )


def estimate_sigma2(est: DncEstimate) -> float:
    """Pooled residual variance estimate.

    ``sigma2_hat = sum_j RSS_j / sum_j (n - df_j)`` with per-machine degrees
    of freedom ``df_j = trace of the ridge smoother`` (plus one for each
    unpenalized null-space function). Both solve paths fit the same estimator,
    so either path's fits serve. Machine ``j``'s residuals are taken on the
    rows it was fitted on, ``est.xs[j]`` and ``est.ys[j]``. Each machine's
    basis at its design is evaluated at most once
    (an ``exact_gram`` fit keeps it) and gives both its fitted values and its
    trace, with the float operations of :func:`~dckrr.solver.predict` and
    :func:`~dckrr.solver.smoother_trace`; the trace is read from a
    ``min(n, M)``-sized Cholesky factor, and no ``n x n`` gram is formed for a
    ``truncated_feature`` fit. Degrees of freedom that sum to ``<= 0``, as
    when the machines hold no more points than the null space has functions,
    raise ``LinAlgError``: a numerical failure, which a sweep counts.
    """
    spec, lam = est.spec, est.lam
    n = est.ys.shape[1]
    rss, dof = 0.0, 0.0
    extra = float(spec.null_dim)
    for fit, xs, ys in zip(est.fits, est.xs, est.ys):
        fitted, G = _fitted_and_scaled_basis(spec, fit, xs)
        resid = ys - fitted
        rss += float(resid @ resid)
        dof += n - _ridge_trace(G, lam) - extra
    if dof <= 0:
        raise np.linalg.LinAlgError("nonpositive residual degrees of freedom")
    return rss / dof
