"""Mercer spectra for the supported kernel families.

A :class:`Spectrum` bundles the eigenvalue sequence (truncated at level M)
of a kernel together with evaluators for the eigenfunctions and the two
kernels built from them:

* ``R`` — the reproducing kernel, ``R(x, y) = sum_nu mu_nu phi_nu(x) phi_nu(y)``;
* ``K`` — the inference kernel, ``K(x, y) = sum_nu phi_nu(x) phi_nu(y) / (1 + lam/mu_nu)``.

Eigenpairs are taken under the design ``U[0,1]^d``; the Gaussian RKHS's are
Nyström pairs from a Gauss–Legendre rule (see :func:`gaussian_rkhs`). For
every family with eigenfunctions, ``R`` is the truncated sum: the Gaussian's
closed form ``exp(-scale |x - y|^2)`` only builds its Nyström pairs.

The basis is read one way. The finite eigenfunctions at points ``X`` are the
columns of :func:`feature_matrix`, column ``j`` going with
``spec.eigenvalues[j]``. The unpenalized null space, the functions with
infinite eigenvalue, is the ``spec.null_dim`` columns of :func:`null_basis`:
the constant for periodic Sobolev and its additive extension
(``null_dim = 1``), the polynomials of degree ``< m`` for the smoothing-spline
family ``W^m[0,1]`` (``null_dim = m``), and nothing for the rest. The null
space never appears in the stored eigenvalue array; each of its functions
contributes exactly 1 to each spectral sum and ``t(x) t(y)`` to ``K``, and
they are fitted without penalty downstream.

Each constructor also sets the family's bounds ``tail`` and ``sup_sq`` (see
:class:`Spectrum`); :func:`spectrum_for` builds a family by its config name.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "Spectrum",
    "SpectralSums",
    "TruncationError",
    "periodic_sobolev",
    "smoothing_spline",
    "additive",
    "gaussian_rkhs",
    "thin_plate",
    "explicit_spectrum",
    "FAMILIES",
    "spectrum_for",
    "truncation_level",
    "smoothing_spline_level",
    "null_basis",
    "feature_matrix",
    "eval_kernel_K",
    "gram_R",
    "spectral_sums",
    "check_tail_sum",
    "check_prop31_ratio",
]

M_DEFAULT = 64
M_CAP = 16384
TAIL_RTOL = 1e-4

GAUSS_NODES = 128  # Gauss–Legendre nodes of the Gaussian's Nyström rule on [0, 1]
GAUSS_FLOOR = 1e-15  # Gaussian eigenvalues kept: mu > GAUSS_FLOOR * mu_1

SMOOTHING_SPLINE_ORDERS = (1, 2)  # orders with closed-form eigenpairs

# config names of the families; ``spline`` is the smoothing spline
FAMILIES = ("spline", "periodic_sobolev", "additive", "gaussian", "gaussian_rkhs", "thin_plate")


class TruncationError(ValueError):
    """Raised when a truncation level cannot represent the kernel accurately."""


@dataclass(frozen=True)
class Spectrum:
    """A truncated Mercer spectrum.

    Attributes
    ----------
    family:
        One of ``periodic_sobolev``, ``smoothing_spline``, ``additive``,
        ``gaussian_rkhs``, ``thin_plate``, ``explicit``.
    m:
        Smoothness order (unused for ``gaussian_rkhs``).
    d:
        Input dimension.
    scale:
        Bandwidth parameter of the Gaussian kernel (ignored elsewhere).
    eigenvalues:
        Finite eigenvalues ``mu_1 >= mu_2 >= ... > 0``; eigenfunction
        ``j`` is column ``j`` of :func:`feature_matrix`. The null space is
        *not* stored here.
    null_dim:
        Dimension of the unpenalized null space, the columns of
        :func:`null_basis`: 1 (the constant) for the periodic and additive
        families, ``m`` for the smoothing spline, 0 otherwise.
    tail:
        Bound on ``sum_{nu > M} mu_nu``, which :func:`spectral_sums` holds
        the level to; 0 for the thin-plate and explicit spectra.
    sup_sq:
        Bound on ``phi(x)^2`` over ``[0, 1]^d`` and the whole basis, null
        space included, so that ``K(x, x) <= sup_sq * h_inv``; ``None`` for
        the Gaussian (no uniform bound), thin-plate and explicit spectra.
    has_eigenfunctions:
        Whether eigenfunction evaluation is available.
    """

    family: str
    m: int
    d: int
    scale: float
    eigenvalues: NDArray[np.float64]
    null_dim: int
    tail: float
    sup_sq: float | None
    has_eigenfunctions: bool

    @property
    def M(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def mu1(self) -> float:
        """Leading finite eigenvalue; the natural scale for lambda."""
        return float(self.eigenvalues[0])

    def __eq__(self, other: object) -> bool:  # dataclass default chokes on arrays
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (
            (self.family, self.m, self.d, self.scale, self.null_dim, self.tail, self.sup_sq)
            == (other.family, other.m, other.d, other.scale, other.null_dim, other.tail,
                other.sup_sq)
            and self.eigenvalues.shape == other.eigenvalues.shape
            and bool(np.all(self.eigenvalues == other.eigenvalues))
        )


@dataclass(frozen=True)
class SpectralSums:
    """Effective-dimension sums at a given regularization level.

    ``h_inv = sum_nu 1/(1 + lam/mu_nu)`` and
    ``h_inv2 = sum_nu 1/(1 + lam/mu_nu)^2``, each including a ``+1`` for
    every function of the family's unpenalized null space.
    """

    lam: float
    h_inv: float
    h_inv2: float


def _pair_eigenvalues(m: int, n_pairs: int) -> NDArray[np.float64]:
    """Eigenvalues (2*pi*k)^(-2m), each repeated for the sin/cos pair."""
    k = np.arange(1, n_pairs + 1, dtype=np.float64)
    return np.repeat((2.0 * np.pi * k) ** (-2 * m), 2)


def _pair_tail(m: int, d: int, M: int) -> float:
    """The ``tail`` of ``d`` periodic components truncated at ``M`` in all:
    ``M // (2d)`` complete sin/cos pairs each, bounded by the integral."""
    k_max = float(M // (2 * d))
    return 2.0 * d * (2.0 * np.pi) ** (-2 * m) * k_max ** (1 - 2 * m) / (2 * m - 1)


def _check_level(M: int, unit: int) -> None:
    """Refuse a level ``M`` of finite eigenfunctions that is not a positive
    multiple of the family's ``unit`` within the cap ``M_CAP``."""
    if M < unit or M % unit:
        raise ValueError(f"M must be a positive multiple of {unit}, got M={M}")
    if M > M_CAP:
        raise TruncationError(f"M={M} exceeds cap {M_CAP}")


def _level(make, m: int, lam: float, unit: int) -> int:
    """The smallest level ``M`` at which ``spectral_sums(make(M), lam)`` holds.

    ``make(M)`` builds the family's spectrum with ``M`` finite eigenfunctions,
    ``M`` a multiple of ``unit``. The search starts from ``M = unit * max(64
    // unit, ceil(10 * (lam/mu1)^(-1/(2m))))`` — stated on the dimensionless
    ratio ``lam/mu1`` so the rule is invariant to the eigenvalue
    normalization — and doubles ``M`` until the tail of ``h_inv`` beyond it
    is within the tolerance that :func:`spectral_sums` enforces.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if lam <= 0:
        raise ValueError("lam must be positive")
    t = lam / make(unit).mu1
    M = unit * max(M_DEFAULT // unit, math.ceil(10.0 * t ** (-1.0 / (2 * m))))
    while M <= M_CAP:
        try:
            spectral_sums(make(M), lam)
            return M
        except TruncationError:
            M *= 2
    raise TruncationError(f"required truncation level exceeds cap {M_CAP} at lam={lam:g}")


def truncation_level(m: int, lam: float, d: int = 1) -> int:
    """Truncation level for a periodic or additive spline fit at ``lam``:
    complete sin/cos pairs for each of the ``d`` components (see
    :func:`_level`)."""
    return _level(functools.partial(additive, m, d), m, lam, unit=2 * d)


def periodic_sobolev(m: int, M: int = M_DEFAULT) -> Spectrum:
    """Periodic Sobolev spectrum of order ``m`` on [0, 1].

    Finite eigenpairs: columns ``2k - 2`` and ``2k - 1`` of
    :func:`feature_matrix` are ``sqrt(2) sin(2*pi*k*x)`` and ``sqrt(2)
    cos(2*pi*k*x)``, both with eigenvalue ``(2*pi*k)^(-2m)``; the constant
    is the null space.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    _check_level(M, 2)
    return Spectrum(
        family="periodic_sobolev",
        m=m,
        d=1,
        scale=0.0,
        eigenvalues=_pair_eigenvalues(m, M // 2),
        null_dim=1,
        tail=_pair_tail(m, 1, M),
        sup_sq=2.0,
        has_eigenfunctions=True,
    )


@functools.lru_cache(maxsize=None)
def _beam_roots(K: int) -> NDArray[np.float64]:
    """The first ``K`` positive roots of ``cos(b) cosh(b) = 1`` (read-only,
    computed once per ``K``).

    Newton's method on the overflow-free form ``cos(b) - sech(b) = 0``,
    started from ``(k + 1/2) pi``; there ``|d/db| ~ 1`` and the correction is
    of size ``2 exp(-b)``, so a few steps reach machine precision.
    """
    b = (np.arange(1, K + 1, dtype=np.float64) + 0.5) * np.pi
    for _ in range(8):
        e = np.exp(-b)
        sech = 2.0 * e / (1.0 + e * e)
        tanh = (1.0 - e * e) / (1.0 + e * e)
        b = b - (np.cos(b) - sech) / (-np.sin(b) + sech * tanh)
    b.flags.writeable = False
    return b


@functools.lru_cache(maxsize=None)
def _spline_freqs(m: int, K: int) -> NDArray[np.float64]:
    """Frequencies ``b_k`` of the first ``K`` smoothing-spline eigenfunctions;
    the eigenvalues are ``mu_k = b_k^(-2m)`` (read-only, computed once per
    ``(m, K)``)."""
    if m != 1:
        return _beam_roots(K)
    b = np.pi * np.arange(1, K + 1, dtype=np.float64)
    b.flags.writeable = False
    return b


@functools.lru_cache(maxsize=None)
def _beam_coeffs(K: int) -> tuple[NDArray[np.float64], ...]:
    """Per-frequency coefficients of the first ``K`` beam modes in the
    overflow-free form of :func:`_spline_phi`: ``(atan(sigma), sqrt(1 +
    sigma^2), (1 + sigma)/2, a)``, read-only, computed once per ``K``."""
    b = _beam_roots(K)
    e = np.exp(-b)
    den = 1.0 - e * e - 2.0 * e * np.sin(b)  # (sinh b - sin b) * 2 exp(-b)
    sigma = (1.0 + e * e - 2.0 * e * np.cos(b)) / den
    a = (np.cos(b) - np.sin(b) - e) / den
    out = (np.arctan(sigma), np.sqrt(1.0 + sigma * sigma), 0.5 * (1.0 + sigma), a)
    for c in out:
        c.flags.writeable = False
    return out


def smoothing_spline(m: int, M: int = M_DEFAULT) -> Spectrum:
    """Smoothing-spline spectrum of the Sobolev space ``W^m[0,1]``.

    The penalty is ``J(f) = integral (f^(m))^2`` and ``V(f, g) = integral
    f g``; the eigenpairs diagonalize both (Wahba 1990, sec. 1.2). The null
    space, the polynomials of degree ``< m``, is unpenalized and symbolic
    (see :func:`null_basis`). Finite eigenpairs, ``k = 1..M``:

    * ``m = 1``: ``phi_k = sqrt(2) cos(k pi x)``, ``mu_k = (k pi)^(-2)``;
    * ``m = 2``: the free-free beam modes ``phi_k = cosh(b x) + cos(b x)
      - sigma_k (sinh(b x) + sin(b x))`` with ``cos(b) cosh(b) = 1``,
      ``sigma_k = (cosh b - cos b) / (sinh b - sin b)`` and
      ``mu_k = b_k^(-4)``.

    Other orders have no closed form and are rejected. As ``b_k > k pi``,
    ``mu_k <= (k pi)^(-2m)`` bounds the ``tail``. ``sup_sq`` is 2 for the
    cosines and 4 for the beam modes, which are 2 at the ends of ``[0, 1]``
    (and ``3 (2x - 1)^2 <= 3`` in the null space).
    """
    if m not in SMOOTHING_SPLINE_ORDERS:
        raise ValueError(
            f"smoothing_spline is implemented for m in {SMOOTHING_SPLINE_ORDERS}, got m={m}"
        )
    _check_level(M, 1)
    return Spectrum(
        family="smoothing_spline",
        m=m,
        d=1,
        scale=0.0,
        eigenvalues=_spline_freqs(m, M) ** (-2.0 * m),
        null_dim=m,
        tail=np.pi ** (-2 * m) * float(M) ** (1 - 2 * m) / (2 * m - 1),
        sup_sq=2.0 if m == 1 else 4.0,
        has_eigenfunctions=True,
    )


def smoothing_spline_level(m: int, lam: float) -> int:
    """Truncation level for a :func:`smoothing_spline` fit at ``lam``: one
    eigenfunction per frequency, so the level counts singles (see
    :func:`_level`)."""
    return _level(functools.partial(smoothing_spline, m), m, lam, unit=1)


def additive(m: int, d: int, M: int | None = None) -> Spectrum:
    """Additive periodic Sobolev spectrum on [0, 1]^d.

    The columns of :func:`feature_matrix` interleave components fastest:
    column ``p*d + k`` is column ``p`` of the periodic basis in coordinate
    ``k`` (all 0-based). A single global constant is the null space. ``M``
    counts the finite eigenfunctions and must be a multiple of ``2*d`` so
    every component gets complete sin/cos pairs.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if M is None:
        M = math.ceil(M_DEFAULT / (2 * d)) * 2 * d
    _check_level(M, 2 * d)
    per_comp = M // d
    mu_comp = _pair_eigenvalues(m, per_comp // 2)  # mu(p) for p = 1..per_comp
    # interleave: index j = (p-1)*d + k  ->  mu(p)
    eigenvalues = np.repeat(mu_comp, d)
    return Spectrum(
        family="additive",
        m=m,
        d=d,
        scale=0.0,
        eigenvalues=eigenvalues,
        null_dim=1,
        tail=_pair_tail(m, d, M),
        sup_sq=2.0,
        has_eigenfunctions=True,
    )


def _gaussian_kernel(scale: float, x: NDArray[np.float64], y: NDArray[np.float64]) -> NDArray[np.float64]:
    """The closed-form 1-D kernel ``exp(-scale (x - y)^2)`` as an ``x.shape +
    y.shape`` array, built in place. Only the Nyström construction uses it:
    the matrix on the nodes and the extension of the eigenfunctions to other
    points (see :func:`_gaussian_basis`)."""
    out = np.subtract.outer(x, y)
    out *= out
    out *= -scale
    return np.exp(out, out=out)


@functools.lru_cache(maxsize=None)
def _gaussian_basis(d: int, scale: float, M: int) -> tuple[NDArray, ...]:
    """Nyström eigenpairs of ``K = exp(-scale |x - y|^2)`` under ``U[0,1]^d``,
    read-only: ``(nodes, coef, mu, index)``.

    In 1-D, ``(mu_nu, u)`` are the eigenpairs of ``W^{1/2} K W^{1/2}`` on the
    Gauss–Legendre rule ``(t_j, w_j)``, each ``u`` starting positive, and
    ``phi_nu(x) = sum_j sqrt(w_j) K(x, t_j) u_j / mu_nu = sum_j K(x, t_j)
    coef[j, nu]`` (Williams & Seeger 2001), accurate to ``~eps mu_1 / mu_nu``.
    In ``d`` dimensions ``phi = prod_k phi_{index[:, k]}(x_k)`` with eigenvalue
    ``mu``, largest first (ties in index order), while ``mu > GAUSS_FLOOR *
    mu_1``, at most ``M``. Every later factor is at most the 1-D ``mu_1``, so
    a partial product below the floor, or below ``M`` others, is dropped.
    """
    t, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    t, sw = 0.5 * (t + 1.0), np.sqrt(0.5 * w)
    A = sw[:, None] * _gaussian_kernel(scale, t, t) * sw
    # x -> 1 - x reverses the nodes and commutes with A, so each eigenvector is
    # even or odd: two half-size problems, small enough for single-threaded BLAS
    h = GAUSS_NODES // 2
    (me, ve), (mo, vo) = (np.linalg.eigh(A[:h, :h] + sign * A[:h, :h - 1 : -1]) for sign in (1, -1))
    mu1, U = np.r_[me, mo], np.block([[ve, vo], [ve[::-1], -vo[::-1]]]) / math.sqrt(2.0)
    order = np.argsort(-mu1, kind="stable")
    order = order[mu1[order] > GAUSS_FLOOR * mu1[order[0]]]
    mu1, U = mu1[order], U[:, order]
    coef = sw[:, None] * U * np.sign(U[0]) / mu1
    K = mu1.shape[0]
    mu, index = np.ones(1), np.zeros((1, 0), dtype=np.int64)
    for k in range(1, d + 1):
        mu = np.multiply.outer(mu, mu1).ravel()
        index = np.column_stack([np.repeat(index, K, axis=0), np.tile(np.arange(K), len(index))])
        keep = mu > GAUSS_FLOOR * mu1[0] ** k
        if np.count_nonzero(keep) > M:
            keep &= mu >= np.sort(mu[keep])[-M]
        mu, index = mu[keep], index[keep]
    order = np.argsort(-mu, kind="stable")[:M]
    out = (t, coef, mu[order], index[order])
    for a in out:
        a.flags.writeable = False
    return out


def gaussian_rkhs(d: int = 1, scale: float = 1.0, M: int = M_CAP) -> Spectrum:
    """Gaussian RKHS spectrum with kernel ``exp(-scale * |x - y|^2)`` under
    ``U[0,1]^d``: Nyström pairs on Gauss–Legendre nodes, tensor products for
    ``d > 1`` (see :func:`_gaussian_basis`). Eigenvalues above ``GAUSS_FLOOR
    * mu_1`` are kept, at most ``M`` (by default all); as ``integral K(x, x)
    dx = 1``, the discarded mass, the ``tail``, is ``1 - sum(mu)``. The
    reproducing kernel of the spectrum, and of every fit in it, is the
    truncated sum ``sum_nu mu_nu phi_nu(x) phi_nu(y)`` (see :func:`gram_R`).
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if M < 1:
        raise ValueError("M must be a positive number of eigenfunctions")
    mu = _gaussian_basis(d, float(scale), M)[2]
    return Spectrum(
        family="gaussian_rkhs",
        m=0,
        d=d,
        scale=float(scale),
        eigenvalues=mu,
        null_dim=0,
        tail=max(0.0, 1.0 - float(np.sum(mu))),
        sup_sq=None,
        has_eigenfunctions=True,
    )


def thin_plate(m: int, d: int, M: int = M_DEFAULT) -> Spectrum:
    """Thin-plate spectrum, eigenvalues only: ``mu_nu = nu^(-2m/d)``.

    No eigenfunctions and no kernel evaluation are available; the spectrum
    supports spectral sums and rate prescriptions only. Its ``tail`` is 0:
    with polynomial decay the tolerance of :func:`spectral_sums` is out of
    reach under ``M_CAP``, so its sums are declared ``M``-term partial sums.
    """
    if 2 * m <= d:
        raise ValueError("thin-plate spectra require 2m > d")
    _check_level(M, 1)
    nu = np.arange(1, M + 1, dtype=np.float64)
    return Spectrum(
        family="thin_plate",
        m=m,
        d=d,
        scale=0.0,
        eigenvalues=nu ** (-2.0 * m / d),
        null_dim=0,
        tail=0.0,
        sup_sq=None,
        has_eigenfunctions=False,
    )


def explicit_spectrum(eigenvalues) -> Spectrum:
    """A spectrum given directly by its eigenvalue sequence.

    Supports the spectral sums and regularity checks only (no
    eigenfunctions, no kernels); useful for diagnostics and calibration
    against hand-computable sequences.
    """
    mu = np.asarray(eigenvalues, dtype=np.float64)
    if mu.ndim != 1 or mu.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-d sequence")
    if np.any(mu <= 0) or np.any(np.diff(mu) > 0):
        raise ValueError("eigenvalues must be positive and nonincreasing")
    return Spectrum(
        family="explicit", m=0, d=1, scale=0.0, eigenvalues=mu,
        null_dim=0, tail=0.0, sup_sq=None, has_eigenfunctions=False,
    )


def spectrum_for(family: str, m: int, d: int, lam: float, M: int | None = None,
                 scale: float = 1.0) -> Spectrum:
    """The spectrum of the family named ``family`` (one of :data:`FAMILIES`)
    at level ``M``, checked to resolve ``lam`` and so every larger ``lambda``.

    ``M = None`` is the family's default level: :func:`smoothing_spline_level`
    or :func:`truncation_level` at ``lam``, ``M_DEFAULT`` for the thin plate,
    and every kept pair for the Gaussian, the one family that reads ``scale``.
    A spectrum the family cannot build raises ``ValueError``, and one that
    does not resolve ``lam`` :class:`TruncationError`.
    """
    if family == "spline":
        spec = smoothing_spline(m, smoothing_spline_level(m, lam) if M is None else M)
    elif family == "periodic_sobolev":
        spec = periodic_sobolev(m, truncation_level(m, lam) if M is None else M)
    elif family == "additive":
        spec = additive(m, d, truncation_level(m, lam, d) if M is None else M)
    elif family == "thin_plate":
        spec = thin_plate(m, d, M_DEFAULT if M is None else M)
    elif family in ("gaussian", "gaussian_rkhs"):
        spec = gaussian_rkhs(d, scale, M_CAP if M is None else M)
    else:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    spectral_sums(spec, lam)
    return spec


def _periodic_phi(M: int, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """The ``M`` finite eigenfunctions of the 1-d periodic family at the
    points ``x``, an ``x.shape + (M,)`` array.

    Column ``2k - 2`` holds ``sqrt(2) sin(2 pi k x)`` and column ``2k - 1``
    holds ``sqrt(2) cos(2 pi k x)``; sin and cos are each computed only for
    their own columns.
    """
    out = np.empty(x.shape + (M,))
    out[..., 0::2] = np.sin(2.0 * np.pi * np.multiply.outer(x, np.arange(1, (M + 1) // 2 + 1)))
    out[..., 1::2] = np.cos(2.0 * np.pi * np.multiply.outer(x, np.arange(1, M // 2 + 1)))
    out *= math.sqrt(2.0)
    return out


def _spline_phi(m: int, K: int, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """The first ``K`` smoothing-spline eigenfunctions at points ``x``, an
    ``x.shape + (K,)`` array built in place in one output and one scratch array.

    For ``m = 2`` the beam mode is evaluated in an overflow-free form:
    ``cosh`` and ``sinh`` are split into exponentials and every growing
    factor is divided out against ``sinh(b) - sin(b)``, leaving
    ``sqrt(1 + sigma^2) cos(b x + atan(sigma)) + (1 + sigma)/2 exp(-b x)
    + a exp(-b (1 - x))`` with bounded coefficients ``sigma`` and ``a``.
    """
    b = _spline_freqs(m, K)
    out = np.multiply.outer(x, b)
    if m == 1:
        np.cos(out, out=out)
        out *= math.sqrt(2.0)
        return out
    phase, amp, decay, a = _beam_coeffs(K)
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


def feature_matrix(spec: Spectrum, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """All finite eigenfunctions at once: an ``(n, M)`` matrix.

    Column ``j`` (0-based) holds the eigenfunction with eigenvalue
    ``spec.eigenvalues[j]`` evaluated at the rows of ``X``. Points with a
    leading machine axis, ``(b, n, d)``, give ``(b, n, M)``, and each
    machine's ``(n, M)`` block has the bits of evaluating it alone. The
    additive family evaluates each component's sin/cos once per distinct value
    of its coordinate, so a ``g x g`` grid costs ``2 g`` rows, not ``g^2``. The
    constant is not included, nor is the rest of the null space (see
    :func:`null_basis`). Families without eigenfunctions raise ``ValueError``
    here, and so every evaluator built on this one.
    """
    if not spec.has_eigenfunctions:
        raise ValueError(f"{spec.family} spectrum does not expose eigenfunctions")
    pts = _as_points(X, spec.d)
    if spec.family == "periodic_sobolev":
        return _periodic_phi(spec.M, pts[..., 0])
    if spec.family == "smoothing_spline":
        return _spline_phi(spec.m, spec.M, pts[..., 0])
    if spec.family == "additive":
        per_comp = spec.M // spec.d
        out = np.empty(pts.shape[:-1] + (spec.M,))
        for k in range(spec.d):
            # each component once per distinct bit pattern of its coordinate
            # (a grid repeats them), gathered back: elementwise, so the same bits
            x = pts[..., k]
            distinct, inverse = np.unique(x.reshape(-1).view(np.int64), return_inverse=True)
            phi = _periodic_phi(per_comp, distinct.view(np.float64))
            out[..., k :: spec.d] = phi[inverse.reshape(x.shape)]
        return out
    if spec.family == "gaussian_rkhs":
        nodes, coef, _, index = _gaussian_basis(spec.d, spec.scale, spec.M)
        out = np.ones(pts.shape[:-1] + (spec.M,))
        for k in range(spec.d):
            # a stacked matmul is one gemm per machine, which keeps each
            # machine's bits; a flat (b n, nodes) product would not
            out *= (_gaussian_kernel(spec.scale, pts[..., k], nodes) @ coef)[..., index[:, k]]
        return out
    raise AssertionError("unreachable")


def null_basis(spec: Spectrum, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """The unpenalized null space at the rows of ``X``: an ``(n, null_dim)``
    matrix of ``V``-orthonormal functions, the constant first, or ``(b, n,
    null_dim)`` for points with a leading machine axis (as in
    :func:`feature_matrix`).

    For the smoothing spline these are the shifted Legendre polynomials
    ``sqrt(2j + 1) P_j(2x - 1)``, ``j < m`` — for ``m = 2``,
    ``{1, sqrt(12) (x - 1/2)}``; elsewhere the constant alone, or nothing.
    """
    pts = _as_points(X, spec.d)
    if spec.family == "smoothing_spline":
        legendre = np.polynomial.legendre.legvander(2.0 * pts[..., 0] - 1.0, spec.m - 1)
        return legendre * np.sqrt(2.0 * np.arange(spec.m) + 1.0)
    return np.ones(pts.shape[:-1] + (spec.null_dim,))


def _as_points(X, d: int) -> NDArray[np.float64]:
    """Coerce input to an (n, d) point array, or keep a (b, n, d) one; 1-d
    input means n points when d == 1 and a single point otherwise."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim <= 1:
        return X.reshape(-1, 1) if d == 1 else X.reshape(1, -1)
    return X


def gram_R(spec: Spectrum, X: NDArray[np.float64], Y: NDArray[np.float64]) -> NDArray[np.float64]:
    """Cross-gram matrix of the reproducing kernel
    ``R(x, y) = sum_nu mu_nu phi_nu(x) phi_nu(y)`` over the finite eigenpairs:
    ``(feature_matrix(X) * mu) @ feature_matrix(Y).T``."""
    return (feature_matrix(spec, X) * spec.eigenvalues) @ feature_matrix(spec, Y).T


def eval_kernel_K(spec: Spectrum, lam: float, x: NDArray[np.float64], y: NDArray[np.float64]) -> float:
    """Inference kernel ``K(x, y) = sum phi(x) phi(y) / (1 + lam/mu)``.

    Each null-space function ``t`` contributes ``t(x) t(y)`` (its ``lam/mu``
    term vanishes); the constant contributes exactly 1.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    w = 1.0 / (1.0 + lam / spec.eigenvalues)
    val = float(np.sum(feature_matrix(spec, x)[0] * feature_matrix(spec, y)[0] * w))
    return val + float(null_basis(spec, x)[0] @ null_basis(spec, y)[0])


def spectral_sums(spec: Spectrum, lam: float) -> SpectralSums:
    """Effective-dimension sums ``h_inv`` and ``h_inv2`` at level ``lam``.

    Raises :class:`TruncationError` when the truncated tail could move
    ``h_inv`` by more than a 1e-4 relative amount.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    w = 1.0 / (1.0 + lam / spec.eigenvalues)
    const = float(spec.null_dim)
    h_inv = const + float(np.sum(w))
    h_inv2 = const + float(np.sum(w * w))
    # each dropped term contributes at most mu_nu/lam to h_inv
    if spec.tail / lam > TAIL_RTOL * h_inv:
        raise TruncationError(
            f"truncation M={spec.M} too coarse for lam={lam:g}: "
            "tail of h_inv exceeds 1e-4 relative mass"
        )
    return SpectralSums(lam=lam, h_inv=h_inv, h_inv2=h_inv2)


def check_tail_sum(spec: Spectrum) -> float:
    """``max_{k < M} sum_{nu=k+1..M} mu_nu / (k * mu_k)`` — the trace-class
    regularity ratio. Returns 0.0 for M = 1."""
    mu = spec.eigenvalues
    if mu.shape[0] <= 1:
        return 0.0
    tails = np.cumsum(mu[::-1])[::-1]  # tails[k] = sum_{nu >= k+1} of mu (0-based)
    k = np.arange(1, mu.shape[0], dtype=np.float64)
    return float(np.max(tails[1:] / (k * mu[:-1])))


def check_prop31_ratio(spec: Spectrum, lam_grid) -> NDArray[np.float64]:
    """``h_inv2 / h_inv`` across a lambda grid (each ratio lies in (0, 1])."""
    return np.array([
        (lambda s: s.h_inv2 / s.h_inv)(spectral_sums(spec, lam)) for lam in lam_grid
    ])
