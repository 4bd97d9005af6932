"""Wald-type inference for the averaged estimate.

The test statistic is the squared embedded norm of the averaged estimate,
``T = |f_bar|^2`` where ``|f|^2 = V(f, f) + lam * |f|_H^2
= sum_j beta_j^2 + sum_nu c_nu^2 (1 + lam/mu_nu)``, with ``beta`` the
coefficients of the unpenalized null space (``c0 = beta_0`` the constant's).
Under the null it concentrates at ``sigma^2 * h_inv / N`` with fluctuation
``sqrt(2 N (N-1) h_inv2) * sigma^2 / N^2``; the standardized statistic is
compared with the two-sided normal quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from dckrr.dnc import Dataset, DncEstimate, Partition, subsample_for
from dckrr.solver import predict, smoother_trace
from dckrr.spectra import Spectrum, gram_R, spectral_sums

__all__ = [
    "NormBreakdown",
    "TestReport",
    "SeparationReport",
    "norm_breakdown",
    "test_statistic",
    "estimate_sigma2",
    "separation",
    "inverse_normal_cdf",
]

QUAD_POINTS = 4096
GRAM_BLOCK_ENTRIES = 2**18  # 2 MB of float64 per block of a Gaussian gram


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
    alpha: float
    N: int
    lam: float
    sigma2: float


@dataclass(frozen=True)
class SeparationReport:
    """Order-level bias / separation quantities of the theory."""

    b_term: float
    d_term: float
    lam: float
    N: int
    n: int


def _quad_grid(d: int, points_per_axis: int) -> NDArray[np.float64]:
    axis = (np.arange(points_per_axis) + 0.5) / points_per_axis
    if d == 1:
        return axis.reshape(-1, 1)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.column_stack([g.reshape(-1) for g in grids])


def _gram_apply(spec: Spectrum, X: NDArray[np.float64], A: NDArray[np.float64],
                w: NDArray[np.float64]) -> NDArray[np.float64]:
    """``gram_R(spec, X, A) @ w``, built in row blocks of at most
    ``GRAM_BLOCK_ENTRIES`` kernel values."""
    rows = max(1, GRAM_BLOCK_ENTRIES // A.shape[0])
    return np.concatenate([
        gram_R(spec, X[i : i + rows], A) @ w for i in range(0, X.shape[0], rows)
    ])


def norm_breakdown(est: DncEstimate) -> NormBreakdown:
    """Split ``|f_bar|^2`` into its ``V`` and RKHS parts.

    Uses Mercer coefficients when eigenfunctions are available. Otherwise
    (Gaussian kernel, no null space) ``f_bar = sum_i w_i R(a_i, .)`` over the
    concatenated anchors ``a`` of all machines, with ``w = concat(alpha_j) / s``:
    the ``V`` part is the midpoint-quadrature mean of ``f_bar^2`` on the unit
    cube and the RKHS part the quadratic form ``w' R(a, a) w``, each gram
    applied in row blocks so that no more than ``GRAM_BLOCK_ENTRIES`` kernel
    values are held at once.
    """
    spec, lam = est.spec, est.lam
    if est.coeffs is not None:
        v = float(np.sum(est.beta**2)) + float(np.sum(est.coeffs**2))
        h = float(np.sum(est.coeffs**2 / spec.eigenvalues))
        return NormBreakdown(v_part=v, h_part=h, lam=lam)
    per_axis = QUAD_POINTS if spec.d == 1 else max(2, round(QUAD_POINTS ** (1.0 / spec.d)))
    grid = _quad_grid(spec.d, per_axis)
    anchors = np.concatenate([f.anchors for f in est.fits])
    w = np.concatenate([f.alpha for f in est.fits]) / est.s
    v = float(np.mean(_gram_apply(spec, grid, anchors, w) ** 2))
    h = float(w @ _gram_apply(spec, anchors, anchors, w))
    return NormBreakdown(v_part=v, h_part=h, lam=lam)


def test_statistic(
    est: DncEstimate,
    N: int,
    sigma2: float = 1.0,
    alpha: float = 0.05,
) -> TestReport:
    """Wald-type test of the global null ``f = 0`` at level ``alpha``.

    ``N`` is the effective sample size (``s * n``). The statistic is the
    embedded squared norm of the averaged estimate; its null center is
    ``sigma^2 * h_inv / N`` and its null scale ``sigma(N) / N^2`` with
    ``sigma^2(N) = 2 sigma^4 N (N-1) h_inv2``. Rejects when ``|z|`` exceeds
    the two-sided normal quantile.
    """
    if N < 2:
        raise ValueError("test requires N >= 2")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    sums = spectral_sums(est.spec, est.lam)
    T = norm_breakdown(est).total
    center = sigma2 * sums.h_inv / N
    scale = math.sqrt(2.0 * N * (N - 1) * sums.h_inv2) * sigma2 / N**2
    z = (T - center) / scale
    crit = inverse_normal_cdf(1.0 - alpha / 2.0)
    return TestReport(
        statistic=T, center=center, scale=scale, z=z, critical=crit,
        reject=bool(abs(z) >= crit), alpha=alpha, N=N, lam=est.lam, sigma2=sigma2,
    )


def estimate_sigma2(est: DncEstimate, data: Dataset, part: Partition) -> float:
    """Pooled residual variance estimate.

    ``sigma2_hat = sum_j RSS_j / sum_j (n - df_j)`` with per-machine degrees
    of freedom ``df_j = trace of the ridge smoother`` (plus one for each
    unpenalized null-space function). Both solve paths fit the same
    estimator, so either path's fits serve.
    """
    spec, lam = est.spec, est.lam
    rss = 0.0
    dof = 0.0
    extra = float(spec.null_dim)
    for j, fit in enumerate(est.fits):
        sub = subsample_for(data, part, j)
        resid = sub.ys - predict(spec, fit, sub.xs)
        rss += float(resid @ resid)
        dof += sub.n - smoother_trace(spec, sub, lam) - extra
    if dof <= 0:
        raise ValueError("nonpositive residual degrees of freedom")
    return rss / dof


def separation(
    spec: Spectrum, lam: float, N: int, n: int, f_norm_H: float, a: float, b: float
) -> SeparationReport:
    """Order-level bias and separation terms of the theory.

    ``b = (lam^{1/2} |f|_H + (N h)^{-1/2}) sqrt(log^b N / (n h^a))`` and
    ``d = lam^{1/2} |f|_H + (N h^{1/2})^{-1/2} + N^{-1/2}
    + b^{1/2} (N h)^{-1/4} + b``, with family constants ``(a, b)``.
    """
    if N < 2 or n < 1:
        raise ValueError("need N >= 2 and n >= 1")
    h = 1.0 / spectral_sums(spec, lam).h_inv
    logN = math.log(N)
    b_term = (math.sqrt(lam) * f_norm_H + (N * h) ** -0.5) * math.sqrt(
        logN**b / (n * h**a)
    )
    d_term = (
        math.sqrt(lam) * f_norm_H
        + (N * math.sqrt(h)) ** -0.5
        + N**-0.5
        + math.sqrt(b_term) * (N * h) ** -0.25
        + b_term
    )
    return SeparationReport(b_term=b_term, d_term=d_term, lam=lam, N=N, n=n)


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile function."""
    import scipy.special  # deferred: it would add about 60 ms to ``import dckrr``

    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return float(scipy.special.ndtri(p))
