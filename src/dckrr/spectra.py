"""Mercer spectra for the supported kernel families.

A :class:`Spectrum` is a kernel's eigenvalues (truncated at level M), their
bounds and the builder of their eigenfunctions, which the thin plate lacks.
The evaluators read every family through these, as do the two kernels:

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
the polynomials of degree ``< null_dim``. It never appears in the stored
eigenvalue array; each of its functions contributes exactly 1 to each
spectral sum and ``t(x) t(y)`` to ``K``, and is fitted without penalty.

Each constructor sets the family's ``tail``, ``sup_sq`` and ``basis`` (see
:class:`Spectrum`), the builder bound to the eigenpairs it computed. Families
compose: :func:`additive` is ``d`` copies of :func:`periodic_sobolev`, one per
coordinate, whose builder calls the component's. :func:`spectrum_for` builds a
family by its config name.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
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

_TILE_VALUES = 8192  # basis values per row tile of the periodic and spline builds

GAUSS_NODES = 128  # Gauss–Legendre nodes of the Gaussian's Nyström rule on [0, 1]
GAUSS_FLOOR = 1e-15  # Gaussian eigenvalues kept: mu > GAUSS_FLOOR * mu_1

SMOOTHING_SPLINE_ORDERS = (1, 2)  # orders with closed-form eigenpairs

# config names of the families; ``spline`` is the smoothing spline
FAMILIES = ("spline", "periodic_sobolev", "additive", "gaussian", "gaussian_rkhs", "thin_plate")


class TruncationError(ValueError):
    """Raised when a truncation level cannot represent the kernel accurately."""


@dataclass(frozen=True)
class Spectrum:
    """A truncated Mercer spectrum: eigenvalues, bounds and basis builder.

    Attributes
    ----------
    family:
        One of ``periodic_sobolev``, ``smoothing_spline``, ``additive``,
        ``gaussian_rkhs``, ``thin_plate``.
    m:
        Smoothness order (unused for ``gaussian_rkhs``).
    d:
        Input dimension.
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
        the level to; 0 for the thin-plate spectrum.
    sup_sq:
        Bound on ``phi(x)^2`` over ``[0, 1]^d`` and the whole basis, null
        space included, so that ``K(x, x) <= sup_sq * h_inv``; ``None`` for
        the Gaussian (no uniform bound) and the thin-plate spectrum.
    basis:
        ``basis(pts, out)`` writes the finite eigenfunctions at the ``(...,
        d)`` points ``pts`` into ``out`` (``pts.shape[:-1] + (M,)``) and
        returns it (see :func:`feature_matrix`); a module-level function or a
        ``functools.partial`` of one, so a spectrum pickles, and not compared
        by ``==``. The constructor binds the builder's level, or the
        component spectrum it repeats, so no builder reads them from
        ``out``. ``None`` for the thin plate, which has no eigenfunctions.
    """

    family: str
    m: int
    d: int
    eigenvalues: NDArray[np.float64]
    null_dim: int
    tail: float
    sup_sq: float | None
    basis: Callable[[NDArray[np.float64], NDArray[np.float64]], NDArray[np.float64]] | None

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
            (self.family, self.m, self.d, self.null_dim, self.tail, self.sup_sq)
            == (other.family, other.m, other.d, other.null_dim, other.tail, other.sup_sq)
            and np.array_equal(self.eigenvalues, other.eigenvalues)
        )


@dataclass(frozen=True)
class SpectralSums:
    """Effective-dimension sums at a given regularization level.

    ``h_inv = sum_nu 1/(1 + lam/mu_nu)`` and
    ``h_inv2 = sum_nu 1/(1 + lam/mu_nu)^2``, each including a ``+1`` for
    every function of the family's unpenalized null space.
    """

    h_inv: float
    h_inv2: float


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
    """Periodic Sobolev spectrum of order ``m`` on [0, 1], the component of
    :func:`additive`.

    Finite eigenpairs: columns ``2k - 2`` and ``2k - 1`` of
    :func:`feature_matrix` are ``sqrt(2) sin(2*pi*k*x)`` and ``sqrt(2)
    cos(2*pi*k*x)``, both with eigenvalue ``(2*pi*k)^(-2m)``; the constant
    is the null space. ``M`` must be even, so every frequency has both.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    _check_level(M, 2)
    pairs = M // 2
    k = np.arange(1, pairs + 1, dtype=np.float64)
    return Spectrum(
        family="periodic_sobolev",
        m=m,
        d=1,
        eigenvalues=np.repeat((2.0 * np.pi * k) ** (-2 * m), 2),  # sin and cos of pair k
        null_dim=1,
        # the eigenvalues past the last pair, bounded by the integral
        tail=2.0 * (2.0 * np.pi) ** (-2 * m) * float(pairs) ** (1 - 2 * m) / (2 * m - 1),
        sup_sq=2.0,
        basis=functools.partial(_periodic_phi, M),
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
        eigenvalues=_spline_freqs(m, M) ** (-2.0 * m),
        null_dim=m,
        tail=np.pi ** (-2 * m) * float(M) ** (1 - 2 * m) / (2 * m - 1),
        sup_sq=2.0 if m == 1 else 4.0,
        basis=functools.partial(_spline_phi, m, M),
    )


def smoothing_spline_level(m: int, lam: float) -> int:
    """Truncation level for a :func:`smoothing_spline` fit at ``lam``: one
    eigenfunction per frequency, so the level counts singles (see
    :func:`_level`)."""
    return _level(functools.partial(smoothing_spline, m), m, lam, unit=1)


def additive(m: int, d: int, M: int | None = None) -> Spectrum:
    """Additive periodic Sobolev spectrum on [0, 1]^d: ``d`` copies of
    ``base = periodic_sobolev(m, M // d)``, one per coordinate, sharing its
    constant, the one null-space function.

    The columns of :func:`feature_matrix` interleave components fastest:
    column ``p*d + k`` is column ``p`` of ``base`` in coordinate ``k`` (all
    0-based), with ``base``'s eigenvalue ``p``. ``M`` counts the finite
    eigenfunctions and must be a multiple of ``2*d`` so every component gets
    complete sin/cos pairs; the ``tail`` is ``d`` times ``base``'s.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if M is None:
        M = math.ceil(M_DEFAULT / (2 * d)) * 2 * d
    _check_level(M, 2 * d)
    base = periodic_sobolev(m, M // d)
    return Spectrum(
        family="additive",
        m=m,
        d=d,
        eigenvalues=np.repeat(base.eigenvalues, d),
        null_dim=1,
        tail=d * base.tail,
        sup_sq=base.sup_sq,
        basis=functools.partial(_additive_phi, base),
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
        eigenvalues=mu,
        null_dim=0,
        tail=max(0.0, 1.0 - float(np.sum(mu))),
        sup_sq=None,
        basis=functools.partial(_gaussian_phi, float(scale), M),
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
        eigenvalues=nu ** (-2.0 * m / d),
        null_dim=0,
        tail=0.0,
        sup_sq=None,
        basis=None,
    )


def spectrum_for(family: str, m: int, d: int, lam: float, M: int | None = None,
                 scale: float = 1.0) -> Spectrum:
    """The spectrum of the family named ``family`` (one of :data:`FAMILIES`)
    at level ``M``, checked to resolve ``lam`` and so every larger ``lambda``.

    ``M = None`` is the family's default level: :func:`smoothing_spline_level`
    or :func:`truncation_level` at ``lam``, ``M_DEFAULT`` for the thin plate,
    and every kept pair for the Gaussian, the one family that reads ``scale``.
    A spectrum the family cannot build raises ``ValueError``, a ``d`` other
    than 1 for the one-dimensional ``spline`` and ``periodic_sobolev`` among
    them, and one that does not resolve ``lam`` :class:`TruncationError`.
    """
    if family in ("spline", "periodic_sobolev") and d != 1:
        raise ValueError(f"d must be 1 for the one-dimensional {family} family, got d={d}")
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


def _row_tiles(pts: NDArray[np.float64], out: NDArray[np.float64]):
    """``(x_tile, out_tile)`` pairs that cover the coordinates of the ``(...,
    1)`` points ``pts`` and the rows of ``out`` (``(..., M)``) in order, each
    tile at most ``_TILE_VALUES`` values (at least one row). The rows of every
    machine are walked as one sequence, so ``out``'s leading axes must merge
    into one without a copy, as those of a C-ordered array or a column slice
    of one do."""
    M = out.shape[-1]
    rows = out.reshape(-1, M)
    if out.size and not np.may_share_memory(rows, out):  # a copy: writes would be lost
        raise ValueError("out's leading axes must merge into one without a copy")
    x = pts.reshape(-1)
    step = max(1, _TILE_VALUES // M)
    for i in range(0, x.shape[0], step):
        yield x[i : i + step], rows[i : i + step]


def _periodic_phi(M: int, pts: NDArray[np.float64],
                  out: NDArray[np.float64]) -> NDArray[np.float64]:
    """The ``M`` finite eigenfunctions of the periodic family at the ``(...,
    1)`` points ``pts``, written into ``out`` (``(..., M)``), which is
    returned.

    Column ``2k - 2`` holds ``sqrt(2) sin(2 pi k x)`` and column ``2k - 1``
    holds ``sqrt(2) cos(2 pi k x)``; sin and cos are each computed only for
    their own columns, in row tiles (see :func:`_row_tiles`).
    """
    k = np.arange(1, M // 2 + 1)
    for xt, ot in _row_tiles(pts, out):
        for trig, first in ((np.sin, 0), (np.cos, 1)):
            t = np.multiply.outer(xt, k)
            t *= 2.0 * np.pi
            trig(t, out=t)
            np.multiply(t, math.sqrt(2.0), out=ot[:, first::2])
    return out


def _spline_phi(m: int, K: int, pts: NDArray[np.float64],
                out: NDArray[np.float64]) -> NDArray[np.float64]:
    """The first ``K`` smoothing-spline eigenfunctions at the ``(..., 1)``
    points ``pts``, written into ``out`` (``(..., K)``) in row
    tiles (see :func:`_row_tiles`), each built in place in two tile-sized
    scratch arrays whose last operation writes the tile of ``out``.

    For ``m = 2`` the beam mode is evaluated in an overflow-free form:
    ``cosh`` and ``sinh`` are split into exponentials and every growing
    factor is divided out against ``sinh(b) - sin(b)``, leaving
    ``sqrt(1 + sigma^2) cos(b x + atan(sigma)) + (1 + sigma)/2 exp(-b x)
    + a exp(-b (1 - x))`` with bounded coefficients ``sigma`` and ``a``.
    """
    b = _spline_freqs(m, K)
    if m == 1:
        for xt, ot in _row_tiles(pts, out):
            t = np.multiply.outer(xt, b)
            np.cos(t, out=t)
            np.multiply(t, math.sqrt(2.0), out=ot)
        return out
    phase, amp, decay, a = _beam_coeffs(K)
    for xt, ot in _row_tiles(pts, out):
        t = np.multiply.outer(xt, b)
        tmp = np.negative(t)
        np.exp(tmp, out=tmp)
        tmp *= decay
        t += phase
        np.cos(t, out=t)
        t *= amp
        t += tmp
        np.multiply.outer(xt - 1.0, b, out=tmp)
        np.exp(tmp, out=tmp)
        tmp *= a
        np.add(t, tmp, out=ot)
    return out


def _additive_phi(base: Spectrum, pts: NDArray[np.float64],
                  out: NDArray[np.float64]) -> NDArray[np.float64]:
    """The additive family's basis at the ``(..., d)`` points ``pts`` (see
    :func:`additive`): ``base.basis`` in each coordinate, once per distinct
    value of it, so a ``g x g`` grid costs ``2 g`` rows, not ``g^2``."""
    d = pts.shape[-1]
    for k in range(d):
        # each distinct bit pattern of the coordinate (a grid repeats them),
        # gathered back: elementwise, so the same bits
        x = pts[..., k]
        distinct, inverse = np.unique(x.reshape(-1).view(np.int64), return_inverse=True)
        scratch = np.empty((distinct.shape[0], base.M))
        phi = base.basis(distinct.view(np.float64)[:, None], scratch)
        out[..., k::d] = phi[inverse.reshape(x.shape)]
    return out


def _gaussian_phi(scale: float, M: int, pts: NDArray[np.float64],
                  out: NDArray[np.float64]) -> NDArray[np.float64]:
    """The Gaussian's basis at the ``(..., d)`` points ``pts``: the Nyström
    eigenfunctions of ``_gaussian_basis(d, scale, M)``, the pairs that
    :func:`gaussian_rkhs` computed, in one kernel gemm over all rows, as
    splitting a gemm's rows changes their rounding."""
    nodes, coef, _, index = _gaussian_basis(pts.shape[-1], scale, M)
    out[...] = 1.0
    for k in range(pts.shape[-1]):
        # a stacked matmul is one gemm per machine, which keeps each
        # machine's bits; a flat (b n, nodes) product would not
        out *= (_gaussian_kernel(scale, pts[..., k], nodes) @ coef)[..., index[:, k]]
    return out


def feature_matrix(spec: Spectrum, X: NDArray[np.float64],
                   out: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """All finite eigenfunctions at once, built by ``spec.basis``: an ``(n,
    M)`` matrix, written into ``out`` when given and returned. ``out`` may be
    a strided view, such as a column slice of a wider array, if its leading
    axes merge without a copy.

    Column ``j`` (0-based) holds the eigenfunction with eigenvalue
    ``spec.eigenvalues[j]`` at the rows of ``X``. Points with a leading
    machine axis, ``(b, n, d)``, give ``(b, n, M)``, each machine's block
    with the bits of evaluating it alone. The null space is not included
    (see :func:`null_basis`). A spectrum without eigenfunctions raises
    ``ValueError`` here, and so does every evaluator built on this one.
    """
    return _feature_matrix(spec, _as_points(X, spec.d), out)


def _feature_matrix(spec: Spectrum, pts: NDArray[np.float64],
                    out: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """:func:`feature_matrix` at points already read by :func:`_as_points`.
    It calls no public function, so a fit may run it on a pool thread (the
    benchmark's tracer wraps the public ones and keeps one span stack)."""
    if spec.basis is None:
        raise ValueError(f"{spec.family} spectrum does not expose eigenfunctions")
    shape = pts.shape[:-1] + (spec.M,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    return spec.basis(pts, out)


def null_basis(spec: Spectrum, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """The unpenalized null space at the rows of ``X``, ``(n, null_dim)`` or
    ``(b, n, null_dim)`` as in :func:`feature_matrix`: the ``V``-orthonormal
    shifted Legendre polynomials ``sqrt(2j + 1) P_j(2 x_0 - 1)``, ``j <
    null_dim``, in the first coordinate. The constant comes first, exactly 1,
    and is all of it when ``null_dim = 1``; the smoothing spline at ``m = 2``
    adds ``sqrt(12) (x - 1/2)``.
    """
    return _null_basis(spec, _as_points(X, spec.d))


def _null_basis(spec: Spectrum, pts: NDArray[np.float64]) -> NDArray[np.float64]:
    """:func:`null_basis` at points already read by :func:`_as_points`; like
    :func:`_feature_matrix`, it calls no public function."""
    q = spec.null_dim
    legendre = np.polynomial.legendre.legvander(2.0 * pts[..., 0] - 1.0, max(q - 1, 0))[..., :q]
    return legendre * np.sqrt(2.0 * np.arange(q) + 1.0)


def _as_points(X, d: int) -> NDArray[np.float64]:
    """Coerce input to an (n, d) point array, or keep a (b, n, d) one; 1-d
    input means n points when d == 1 and one point when it holds d
    coordinates. Every other shape is refused: a ``(b, n)`` stack of 1-d
    coordinates would otherwise read as ``b`` points, and ``d + 1``
    coordinates as one point with the last dropped."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim <= 1 and (d == 1 or X.size == d):
        return X.reshape(-1, d)
    if X.ndim <= 1 or X.shape[-1] != d:
        raise ValueError(f"points must be (n, {d}) or (b, n, {d}), got shape {X.shape}")
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
    return SpectralSums(h_inv=h_inv, h_inv2=h_inv2)


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
    sums = [spectral_sums(spec, lam) for lam in lam_grid]
    return np.array([s.h_inv2 / s.h_inv for s in sums])
