"""Divide-and-conquer pipeline: partition, per-machine fits, averaging.

``partition`` deals a :class:`~dckrr.solver.Dataset` of ``N`` points into
``s`` machines of equal size ``n = floor(N/s)`` (the remainder is left out),
so a machine's data is some rows of the sample. ``fit_all`` and
:func:`xi_diagnostic` each gather every machine's rows at once,
``data.xs[part.assignment]``, and read machine ``j`` as row ``j``. ``fit_all``
fits each machine independently, in machine order, a block of machines at a
time, and averages them into a :class:`DncEstimate`, which keeps the gathered
rows; the plug-in variance reads them there and gathers none of its own. A block
shares one evaluation of the basis, and each fit has the bits of fitting its
machine alone. A ``truncated_feature`` block allocates one design array and
builds its basis in cache-sized row tiles, so it holds one block-sized array,
not three. An ``exact_gram`` fit keeps its basis at its design points, so the
estimate's coefficients, :func:`predict_bar` and the plug-in variance read it
instead of evaluating it again. The bits also depend on the BLAS thread count,
which :func:`~dckrr.simlab.run_sweep` fixes at one; outside a sweep it is the
caller's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from dckrr.solver import Dataset, MachineFit, _fit_block, _predictions
from dckrr.spectra import Spectrum, feature_matrix, null_basis

__all__ = [
    "Dataset",
    "Partition",
    "DncEstimate",
    "partition",
    "fit_all",
    "predict_bar",
    "xi_diagnostic",
]

_BLOCK_ROWS = 512  # design rows per block of machines that fit_all fits together


@dataclass(frozen=True)
class Partition:
    """Assignment of sample indices to machines: an ``(s, n)`` index array,
    machine ``j``'s rows of the sample as row ``j``."""

    assignment: NDArray[np.int64]

    @property
    def s(self) -> int:
        return self.assignment.shape[0]

    @property
    def n(self) -> int:
        return self.assignment.shape[1]

    @property
    def N_effective(self) -> int:
        return self.assignment.size


@dataclass(frozen=True)
class DncEstimate:
    """The averaged estimate ``f_bar = (1/s) sum_j f_hat_j``.

    ``coeffs`` holds the Mercer coefficients ``c_nu = V(f_bar, phi_nu)`` of
    the finite eigenpairs and ``beta`` the averaged coefficients of the
    null-space functions ``null_basis(spec, .)``, which are ``V``-orthonormal
    and orthogonal to every ``phi_nu``. ``xs`` (``(s, n)`` or ``(s, n, d)``)
    and ``ys`` (``(s, n)``) are the rows the machines were fitted on, machine
    ``j`` as row ``j``, read-only.
    """

    spec: Spectrum
    lam: float
    fits: tuple[MachineFit, ...]
    beta: NDArray[np.float64]
    coeffs: NDArray[np.float64]
    xs: NDArray[np.float64]
    ys: NDArray[np.float64]

    @property
    def s(self) -> int:
        return len(self.fits)


def partition(data: Dataset, s: int, seed: int) -> Partition:
    """Randomly deal the sample into ``s`` machines of size ``floor(N/s)``.

    Uses a counter-based generator keyed on ``seed``, so the result is a
    pure function of ``(N, s, seed)``.
    """
    if not 1 <= s <= data.N:
        raise ValueError(f"s must be in 1..{data.N}")
    n = data.N // s
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    perm = rng.permutation(data.N)
    return Partition(assignment=perm[: s * n].reshape(s, n).astype(np.int64))


def fit_all(
    spec: Spectrum,
    data: Dataset,
    part: Partition,
    lam: float,
    solve_path: str = "exact_gram",
    workers: int | None = None,
) -> DncEstimate:
    """Fit every machine, in order, and average.

    The machines' rows are gathered at once, machine ``j`` as row ``j``, and
    kept on the estimate; the :class:`Dataset` was checked when it was built. The
    machines are fitted serially, in blocks of ``max(1, 512 // n)`` machines,
    about 512 design rows: a block evaluates the basis once, and each of its
    fits equals :func:`~dckrr.solver.krr_fit` on that machine's rows alone,
    bit for bit. A sweep runs its replications on threads instead
    (see :func:`~dckrr.simlab.run_sweep`). ``workers`` is accepted as ``None``
    or 1 only, and any other value raises ``ValueError``.
    """
    if workers not in (None, 1):
        raise ValueError(f"workers must be None or 1, got {workers!r}")
    xs, ys = data.xs[part.assignment], data.ys[part.assignment]
    xs.flags.writeable = ys.flags.writeable = False
    step = max(1, _BLOCK_ROWS // part.n)
    fits = [
        fit for j in range(0, part.s, step)
        for fit in _fit_block(spec, xs[j : j + step], ys[j : j + step], lam, solve_path)
    ]
    # ordered folds over the machines
    beta = sum((f.beta for f in fits), np.zeros(spec.null_dim)) / part.s
    coeffs = sum((f.mercer_coeffs(spec) for f in fits), np.zeros(spec.M)) / part.s
    return DncEstimate(spec=spec, lam=lam, fits=tuple(fits), beta=beta, coeffs=coeffs, xs=xs, ys=ys)


def predict_bar(est: DncEstimate, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """Evaluate the averaged estimate at new points (ordered fold over the
    machines, with the basis at ``X`` evaluated once)."""
    values = _predictions(est.spec, est.fits, X)
    acc = next(values)
    for v in values:
        acc += v
    return acc / est.s


def xi_diagnostic(
    spec: Spectrum, data: Dataset, part: Partition, lam: float
) -> NDArray[np.float64]:
    """Per-machine empirical-orthonormality defects.

    For machine ``j``, forms the matrix
    ``Delta_j[a, b] = ((1/n) sum_i phi_a(x_i) phi_b(x_i) - delta_ab)
    / sqrt((1 + lam/mu_a)(1 + lam/mu_b))`` over the truncated basis (the
    null-space functions included with unit divisor, when present) and
    returns the ``s`` spectral norms ``xi_j``.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    w = np.r_[np.ones(spec.null_dim), 1.0 / np.sqrt(1.0 + lam / spec.eigenvalues)]
    xs = data.xs[part.assignment]
    out = np.empty(part.s)
    for j in range(part.s):
        phi = np.column_stack([null_basis(spec, xs[j]), feature_matrix(spec, xs[j])])
        G = phi.T @ phi / phi.shape[0] - np.eye(phi.shape[1])
        G *= np.outer(w, w)
        out[j] = np.linalg.norm(G, 2)
    return out
