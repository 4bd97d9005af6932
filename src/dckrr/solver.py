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
one-machine case): the basis is evaluated for the whole block, and every
BLAS product of the block is one stacked ``np.matmul``, whose loop makes the
2-D call of each machine in turn, so every fit has the bits of fitting that
machine alone; only the LAPACK solves loop over the machines in Python. A
``truncated_feature`` block allocates one design array and builds the basis
into it in cache-sized row tiles (see :func:`~dckrr.spectra.feature_matrix`).
Cholesky solves call LAPACK's ``potrf`` and ``potrs`` directly, as
``scipy.linalg.cho_factor``/``cho_solve`` would, and the ``exact_gram`` KKT
solve calls ``sytrf`` and ``sytrs``, as ``scipy.linalg.solve(...,
assume_a="sym")`` does.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from dckrr.spectra import (
    Spectrum,
    _as_points,
    _feature_matrix,
    _null_basis,
    feature_matrix,
    null_basis,
)

__all__ = ["SOLVE_PATHS", "Dataset", "MachineFit", "krr_fit", "predict", "smoother_trace"]

SOLVE_PATHS = ("exact_gram", "truncated_feature")
# values of the normal matrices that a truncated_feature block forms at once,
# at most (512 KB): 15 machines at q + M = 66 (n = 8, M = 64), and one at q + M
# = 342 (n = 8, M = 340), whose 64-machine block would otherwise stack 60 MB.
# On one BLAS thread, a block of 64 machines at M = 340 took 67.6 ms with
# stacks of 2**19 values (4 machines) against 57-60 ms with one machine
_NORMAL_STACK_VALUES = 2**16
# values of one stacked truncated_feature prediction product, at most (128
# KB): on one BLAS thread, 512 machines' values at 512 points (M = 64) took
# 2.5-2.6 ms in stacks of 16-32 machines, 4.6-4.9 ms in stacks of 256-512
# (which leave the cache) and 3.6 ms one machine at a time
_VALUE_STACK_VALUES = 2**14


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


def _cholesky(A: NDArray[np.float64], clean: int = 1) -> NDArray[np.float64]:
    """The lower Cholesky factor of ``A`` (read from its lower triangle), with
    the upper triangle zeroed, or with ``clean=0`` left as ``A``'s;
    ``LinAlgError`` with ``cho_factor``'s message if ``A`` is not positive
    definite."""
    c, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=clean)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c


def _solve_spd(A: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve ``A x = b`` by the lower Cholesky factor, with the LAPACK calls of
    ``scipy.linalg.cho_factor``/``cho_solve`` and without their wrappers. The
    factor's upper triangle is left uncleaned, as ``cho_factor`` leaves it:
    ``potrs`` reads the lower one only."""
    return scipy.linalg.lapack.dpotrs(_cholesky(A, clean=0), b, lower=1)[0]


def _solve_sym(K: NDArray[np.float64], rhs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve ``K[j] x = rhs[j]`` for each ``j`` of a stack of symmetric
    systems, reading each ``K[j]``'s upper triangle, with the LAPACK calls of
    ``scipy.linalg.solve(K[j], rhs[j], assume_a="sym")`` and without its
    wrapper: ``dsytrf`` at its optimal workspace, then ``dsytrs``. A system
    that SciPy would refuse as singular or warn of as ill-conditioned (by
    ``dsycon`` on the upper triangle's 1-norm, below machine epsilon) is
    solved by SciPy itself, with the same calls, so the ``LinAlgError`` or
    ``LinAlgWarning`` is SciPy's."""
    lapack = scipy.linalg.lapack
    m = K.shape[-1]
    lwork = int(lapack.dsytrf_lwork(m, lower=0)[0])
    # the lower triangle mirrors the upper, so each system is exactly
    # symmetric, K[j].T is K[j] in Fortran order, and its 1-norm is that of
    # the triangle LAPACK reads
    K = np.where(np.tri(m, k=-1, dtype=bool), np.swapaxes(K, -1, -2), K)
    # SciPy's rcond can differ from this one in its last bits (its norm sums
    # in another order), so systems within a factor 2 of its threshold go to
    # SciPy too
    threshold = 2 * np.finfo(np.float64).eps
    out = np.empty(rhs.shape)
    for j in range(len(K)):
        lu, ipiv, info = lapack.dsytrf(K[j].T, lower=0, lwork=lwork)
        if info == 0:
            rcond, info = lapack.dsycon(lu, ipiv, lapack.dlange("1", K[j].T), lower=0)
        if info or not rcond >= threshold:
            out[j] = scipy.linalg.solve(K[j], rhs[j], assume_a="sym", check_finite=False)
        else:
            out[j] = lapack.dsytrs(lu, ipiv, rhs[j], lower=0)[0]
    return out


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
    axis. Every product of the block is one stacked ``np.matmul``, which makes
    each machine's 2-D BLAS call in turn, and the ``n lam`` shift of the
    penalized diagonals is one strided add over the stack; the Python loop over
    the machines keeps only the LAPACK solve and the :class:`MachineFit`, so
    every fit has the bits of fitting that machine alone.

    * ``exact_gram``: the grams ``R_n`` as one stack; with a null space, the
      KKT systems ``[[R_n + n lam I, T], [T', 0]]`` as one stack too, solved by
      :func:`_solve_sym`, and without one, Cholesky solves.
    * ``truncated_feature``: the design ``[null_basis, phi * sqrt(mu)]`` is one
      ``(b, n, q + M)`` array, whose trailing columns
      :func:`~dckrr.spectra.feature_matrix` fills in place; the right-hand
      sides ``X' y`` are one stacked product, and the normal matrices ``X' X``
      (a ``syrk`` each, mirrored) are formed ``_NORMAL_STACK_VALUES // (q +
      M)^2`` machines at a time, at least one, into one reused buffer, so a
      block holds at most ``_NORMAL_STACK_VALUES`` values of them, or one
      machine's where that is more.

    It calls no public ``dckrr`` function, so :func:`~dckrr.dnc.fit_all` may
    run it on a pool thread.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if solve_path not in SOLVE_PATHS:
        raise ValueError(f"unknown solve_path {solve_path!r}")
    b, n = ys.shape
    pts = _as_points(xs.reshape(b, n, -1), spec.d)
    q = spec.null_dim
    if solve_path == "exact_gram":
        F = _feature_matrix(spec, pts)
        R = _anchor_gram(spec, F)
        R.reshape(b, -1)[:, :: n + 1] += n * lam
        if q:
            # the upper triangles of the KKT systems for the unpenalized null
            # space, T'alpha = 0
            K = np.zeros((b, n + q, n + q))
            K[:, :n, :n] = R
            K[:, :n, n:] = _null_basis(spec, pts)
            rhs = np.zeros((b, n + q))
            rhs[:, :n] = ys
            sols = _solve_sym(K, rhs)
            return [MachineFit(solve_path=solve_path, beta=sol[n:], alpha=sol[:n], features=F[j])
                    for j, sol in enumerate(sols)]
        return [MachineFit(solve_path=solve_path, beta=np.zeros(0), alpha=_solve_spd(R[j], ys[j]),
                           features=F[j]) for j in range(b)]
    p = q + spec.M
    X = np.empty((b, n, p))
    X[..., :q] = _null_basis(spec, pts)
    psi = _feature_matrix(spec, pts, out=X[..., q:])
    psi *= np.sqrt(spec.eigenvalues)
    Xt = np.swapaxes(X, 1, 2)
    rhs = np.matmul(Xt, ys[..., None])[..., 0]
    step = max(1, _NORMAL_STACK_VALUES // p**2)
    normal = np.empty((min(step, b), p, p))  # reused by each stack of machines
    fits = []
    for i in range(0, b, step):
        A = np.matmul(Xt[i : i + step], X[i : i + step], out=normal[: min(step, b - i)])
        A.reshape(len(A), -1)[:, q * (p + 1) :: p + 1] += n * lam  # the diagonal after q
        for j in range(len(A)):
            sol = _solve_spd(A[j], rhs[i + j])
            fits.append(MachineFit(solve_path=solve_path, beta=sol[:q], theta=sol[q:]))
    return fits


def predict(spec: Spectrum, fit: MachineFit, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Evaluate a fitted machine at new points."""
    return next(_values((fit,), *_prediction_basis(spec, fit.solve_path, X)))


def _prediction_basis(spec: Spectrum, solve_path: str, X: NDArray[np.float64]):
    """``(null, F)`` at ``X``: the null-space basis and the one scaled basis
    that fits of ``solve_path`` multiply by, built in place: ``phi *
    sqrt(mu)`` for ``truncated_feature`` and ``phi * mu`` (the left factor of
    :func:`~dckrr.spectra.gram_R`) for ``exact_gram``, whose right factor is
    each fit's kept ``features``."""
    X = np.asarray(X, dtype=np.float64)
    null = null_basis(spec, X)
    F = feature_matrix(spec, X)
    F *= spec.eigenvalues if solve_path == "exact_gram" else np.sqrt(spec.eigenvalues)
    return null, F


def _values(
    fits, null: NDArray[np.float64], F: NDArray[np.float64]
) -> Iterator[NDArray[np.float64]]:
    """Each fit's values at the points of :func:`_prediction_basis`'s ``(null,
    F)``, in order, each bit-identical to evaluating that fit alone, ``null @
    beta + F @ theta`` or ``null @ beta + (F @ features') @ alpha``. The fits
    share one solve path and one machine size ``n``, as one fit or the fits of
    one :func:`~dckrr.dnc.fit_all` do. On the ``truncated_feature`` path the
    fits' coefficients are stacked ``_VALUE_STACK_VALUES // len(F)`` fits at a
    time, and each stack's values are two stacked ``np.matmul`` products (one
    gemv a fit each) and one add, yielded as the rows of one ``(len(stack),
    len(F))`` array. The ``exact_gram`` cross-grams
    ``(len(F), n)`` are written into one buffer of this call, which its fits
    reuse; each yielded array is new. Only NumPy runs here, so the loop may
    run on any thread."""
    if fits[0].solve_path != "exact_gram":
        step = max(1, _VALUE_STACK_VALUES // len(F))
        for i in range(0, len(fits), step):
            stack = fits[i : i + step]
            values = np.matmul(null, np.array([fit.beta for fit in stack])[..., None])
            values += np.matmul(F, np.array([fit.theta for fit in stack])[..., None])
            yield from values[..., 0]
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
