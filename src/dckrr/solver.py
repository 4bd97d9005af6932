"""Per-machine kernel ridge regression, and :class:`Dataset`, the one sample
type, which is checked where it is built, so no later stage checks again.

Two solve paths produce the same estimate on the truncated kernel
``R = sum_nu mu_nu phi_nu phi_nu``, so both need the spectrum's eigenfunctions:

* ``exact_gram`` — representer form: solve the ``n x n`` system
  ``(R_n + n*lam*I) alpha = y`` (augmented with the unpenalized null space
  for spectra that have one), with ``R_n`` formed from the basis at the
  design points.
* ``truncated_feature`` — ridge in the scaled eigenfunction basis
  ``psi_nu = sqrt(mu_nu) phi_nu``; an ``M x M`` solve, much cheaper when
  ``n >> M``.

Both paths fit a block of machines at once (:func:`_fit_block`, which
:func:`~dckrr.dnc.fit_all` calls and of which :func:`krr_fit` is the
one-machine case): the basis is evaluated for the whole block, and each
machine forms and solves its own system, so every fit has the bits of
fitting that machine alone. A ``truncated_feature`` block allocates one
design array and builds the basis into it in cache-sized row tiles (see
:func:`~dckrr.spectra.feature_matrix`). Cholesky solves call LAPACK's
``potrf`` and ``potrs`` directly, as ``scipy.linalg.cho_factor``/``cho_solve``
would.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from dckrr.spectra import Spectrum, feature_matrix, null_basis

__all__ = ["SOLVE_PATHS", "Dataset", "MachineFit", "krr_fit", "predict", "smoother_trace"]

SOLVE_PATHS = ("exact_gram", "truncated_feature")


@dataclass(frozen=True)
class Dataset:
    """A sample of ``N`` points: design ``xs`` (``N`` or ``N x d``) and
    responses ``ys``. The full sample and one machine's rows of it are both
    a ``Dataset``. It refuses an empty sample, ``ys`` that is not 1-D with one
    entry per row of ``xs``, and a non-finite value in either array, and keeps
    read-only copies of both, out of reach of the caller's later writes."""

    xs: NDArray[np.float64]
    ys: NDArray[np.float64]

    def __post_init__(self):
        xs = np.array(self.xs, dtype=np.float64)
        ys = np.array(self.ys, dtype=np.float64)
        if xs.shape[0] == 0:
            raise ValueError("empty sample")
        if ys.shape != xs.shape[:1]:
            raise ValueError(f"ys must be 1-D, one entry per row of xs, got shape {ys.shape}")
        for name, a in (("xs", xs), ("ys", ys)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite values")
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def N(self) -> int:
        return self.xs.shape[0]


@dataclass(frozen=True)
class MachineFit:
    """One machine's fitted function ``f(x) = <beta, t(x)> + <weights, basis(x)>``.

    ``beta`` holds the coefficients of the unpenalized null-space functions
    ``t = null_basis(spec, .)``, the constant first. For the ``exact_gram``
    path, ``alpha`` holds the representer coefficients of the training points
    ``x_i``, ``f = <beta, t> + sum_i alpha_i R(x_i, .)``, and ``features =
    feature_matrix(spec, x)`` the basis there, which the fit's coefficients,
    predictions and residuals read; the points and ``lam`` are kept once, on
    :class:`~dckrr.dnc.DncEstimate`. For the ``truncated_feature`` path,
    ``theta`` holds coefficients in the scaled basis ``sqrt(mu_nu) phi_nu``.
    """

    solve_path: str
    beta: NDArray[np.float64]
    alpha: NDArray[np.float64] | None = None
    theta: NDArray[np.float64] | None = field(default=None, repr=False)
    features: NDArray[np.float64] | None = field(default=None, repr=False)

    def mercer_coeffs(self, spec: Spectrum) -> NDArray[np.float64]:
        """Coefficients ``c_nu = V(f, phi_nu)`` for the finite eigenpairs."""
        if self.solve_path == "truncated_feature":
            return self.theta * np.sqrt(spec.eigenvalues)
        return spec.eigenvalues * (self.features.T @ self.alpha)


def _anchor_gram(spec: Spectrum, F: NDArray[np.float64]) -> NDArray[np.float64]:
    """``gram_R(spec, xs, xs)`` formed from ``F = feature_matrix(spec, xs)``,
    with the same float operations; for a stack of machines' ``F``, one gram
    per machine."""
    return (F * spec.eigenvalues) @ np.swapaxes(F, -1, -2)


def _cholesky(A: NDArray[np.float64]) -> NDArray[np.float64]:
    """The lower Cholesky factor of ``A`` (read from its lower triangle), with
    the upper triangle zeroed; ``LinAlgError`` with ``cho_factor``'s message
    if ``A`` is not positive definite."""
    c, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c


def _solve_spd(A: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve ``A x = b`` by the lower Cholesky factor, with the LAPACK calls of
    ``scipy.linalg.cho_factor``/``cho_solve`` and without their wrappers."""
    return scipy.linalg.lapack.dpotrs(_cholesky(A), b, lower=1)[0]


def krr_fit(spec: Spectrum, sub: Dataset, lam: float, solve_path: str = "exact_gram") -> MachineFit:
    """Fit kernel ridge regression on one machine's sample.

    Minimizes ``(1/n) sum (y_i - f(x_i))^2 + lam * |f|_H^2`` over
    ``f = <beta, t> + g`` with ``g`` in the (truncated) RKHS and ``t`` the
    family's null space (:func:`~dckrr.spectra.null_basis`), which is
    unpenalized (the exact limit of penalty ``lam/mu`` as ``mu -> inf``).
    This is the one-machine case of :func:`_fit_block`.
    """
    return _fit_block(spec, sub.xs[None], sub.ys[None], lam, solve_path)[0]


def _fit_block(
    spec: Spectrum, xs: NDArray[np.float64], ys: NDArray[np.float64], lam: float, solve_path: str
) -> list[MachineFit]:
    """Fit a block of machines, in order: machine ``j`` has design ``xs[j]``
    and responses ``ys[j]`` (``ys`` is ``(b, n)``, ``xs`` ``(b, n)`` or ``(b, n,
    d)``). The basis is evaluated once for the block, with a leading machine
    axis; each machine forms and solves its own system, so every fit has the
    bits of fitting that machine alone. The ``truncated_feature`` design
    ``[null_basis, phi * sqrt(mu)]`` is one ``(b, n, q + M)`` array, whose
    trailing columns :func:`~dckrr.spectra.feature_matrix` fills in place.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if solve_path not in SOLVE_PATHS:
        raise ValueError(f"unknown solve_path {solve_path!r}")
    b, n = ys.shape
    pts = xs.reshape(b, n, -1)
    q = spec.null_dim
    fits = []
    if solve_path == "exact_gram":
        F = feature_matrix(spec, pts)
        R = _anchor_gram(spec, F)
        T = null_basis(spec, pts)
        for j in range(b):
            A = R[j]
            A.flat[:: n + 1] += n * lam
            if q:
                # KKT system for the unpenalized null space: T'alpha = 0
                sys = np.block([[A, T[j]], [T[j].T, np.zeros((q, q))]])
                rhs = np.concatenate([ys[j], np.zeros(q)])
                sol = scipy.linalg.solve(sys, rhs, assume_a="sym", check_finite=False)
                alpha, beta = sol[:n], sol[n:]
            else:
                alpha, beta = _solve_spd(A, ys[j]), np.zeros(0)
            fits.append(MachineFit(solve_path=solve_path, beta=beta, alpha=alpha, features=F[j]))
        return fits
    X = np.empty((b, n, q + spec.M))
    X[..., :q] = null_basis(spec, pts)
    psi = feature_matrix(spec, pts, out=X[..., q:])
    psi *= np.sqrt(spec.eigenvalues)
    penalized = slice(q * (q + spec.M + 1), None, q + spec.M + 1)  # A's diagonal after q
    for j in range(b):
        A = X[j].T @ X[j]
        A.flat[penalized] += n * lam
        sol = _solve_spd(A, X[j].T @ ys[j])
        fits.append(MachineFit(solve_path=solve_path, beta=sol[:q], theta=sol[q:]))
    return fits


def predict(spec: Spectrum, fit: MachineFit, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Evaluate a fitted machine at new points."""
    return next(_predictions(spec, (fit,), X))


def _predictions(spec: Spectrum, fits, X: NDArray[np.float64]) -> Iterator[NDArray[np.float64]]:
    """Each fit's values at ``X``, in order, with the basis at ``X`` evaluated once.

    The fits share one solve path and one machine size ``n``, as one fit or
    the fits of one :func:`~dckrr.dnc.fit_all` do, and only the scaled basis
    it multiplies by is built, in place: ``phi * sqrt(mu)`` for
    ``truncated_feature`` and ``phi * mu`` (the left factor of
    :func:`~dckrr.spectra.gram_R`) for ``exact_gram``, whose right factor is
    the fit's kept ``features``. The ``exact_gram`` cross-grams ``(len(X),
    n)`` are written into one buffer that every fit reuses; each yielded
    array is new. Each fit's values are bit-identical to evaluating it alone.
    """
    X = np.asarray(X, dtype=np.float64)
    null = null_basis(spec, X)
    exact = fits[0].solve_path == "exact_gram"
    F = feature_matrix(spec, X)
    F *= spec.eigenvalues if exact else np.sqrt(spec.eigenvalues)
    if not exact:
        yield from (null @ fit.beta + F @ fit.theta for fit in fits)
        return
    R = np.empty((F.shape[0], fits[0].features.shape[0]))  # the reused cross-gram
    for fit in fits:
        np.matmul(F, fit.features.T, out=R)
        yield null @ fit.beta + R @ fit.alpha


def smoother_trace(spec: Spectrum, sub: Dataset, lam: float) -> float:
    """Trace of the ridge smoother, ``trace(R_n (R_n + n*lam*I)^{-1})``.

    Lies in ``[0, n]``; tends to ``n`` as ``lam -> 0`` (when ``R_n`` has full
    rank) and to 0 as ``lam -> inf``. It is read from the Cholesky factor of
    the smaller of ``R_n = G G^T`` and ``G^T G``, ``G = phi * sqrt(mu)`` the
    scaled basis at ``sub.xs``, which share their nonzero eigenvalues: a
    ``min(n, M)``-sized system, not an ``n x n`` eigendecomposition. (The
    unpenalized null space, when present, contributes ``spec.null_dim`` extra
    degrees of freedom accounted for by the caller.)
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    G = feature_matrix(spec, sub.xs)
    G *= np.sqrt(spec.eigenvalues)
    return _ridge_trace(G, lam)


def _ridge_trace(G: NDArray[np.float64], lam: float) -> float:
    """``trace(S (S + n lam I)^{-1})`` for ``S`` the smaller of ``G G^T`` and
    ``G^T G``, ``n = G.shape[0]``.

    With ``S + n lam I = L L^T`` and ``Li = L^{-1}``, the trace is
    ``trace(Li S Li^T) = sum(Li * (Li @ S))``: a sum of the diagonal of a
    positive semidefinite matrix, with nothing subtracted from ``n``, so it
    stays ``>= 0`` and keeps its relative accuracy at large ``lam``.
    """
    n = G.shape[0]
    S = G @ G.T if n <= G.shape[1] else G.T @ G
    A = S.copy()
    A.flat[:: A.shape[0] + 1] += n * lam
    Li = scipy.linalg.lapack.dtrtri(_cholesky(A), lower=1)[0]
    return float(np.sum(Li * (Li @ S)))


def _fitted_and_scaled_basis(spec: Spectrum, fit: MachineFit, xs: NDArray[np.float64]):
    """A fit's values at its own design ``xs``, equal to ``predict(spec, fit,
    xs)``, and the scaled basis ``G = phi * sqrt(mu)`` there that
    :func:`smoother_trace` reads. Both come from one basis ``F`` at ``xs``,
    an ``exact_gram`` fit's kept ``features``: its values are
    ``null @ beta + R_n @ alpha`` with ``R_n = (F * mu) @ F.T``, as
    :func:`predict` forms them, and a ``truncated_feature`` fit's are ``null
    @ beta + G @ theta``, with no ``n x n`` gram."""
    null = null_basis(spec, xs)
    if fit.solve_path == "exact_gram":
        fitted = null @ fit.beta + _anchor_gram(spec, fit.features) @ fit.alpha
        return fitted, fit.features * np.sqrt(spec.eigenvalues)
    G = feature_matrix(spec, xs)
    G *= np.sqrt(spec.eigenvalues)
    return null @ fit.beta + G @ fit.theta, G
