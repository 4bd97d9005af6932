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
instead of evaluating it again. :func:`predict_bar` evaluates the basis at its
points once; where each machine's ``exact_gram`` cross-gram is large and every
OpenBLAS of the process runs on one thread, as in a sweep, it runs the
machines' products on the calling thread and on a pool sized by the CPUs the
process may run on, up to ``_MAX_MACHINE_THREADS``, a level of parallelism
under a sweep's ``workers``, and folds their values in machine order, so the
bits are those of running them one after another. The bits also depend on the
BLAS thread count, which :func:`~dckrr.simlab.run_sweep` fixes at one; outside
a sweep it is the caller's.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from dckrr.solver import Dataset, MachineFit, _fit_block, _prediction_basis, _values
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
# multiply-adds (len(X) * M * n) of one machine's cross-gram from which
# predict_bar runs machines on several threads. Timed against the calling
# thread alone on a 2-core host with one BLAS thread (whole calls, medians of
# 11 alternating timings), the pool took 1.8x the time at 7.7e3 and 3.1e4,
# 1.3x at 1.3e5, 0.99x at 2.6e5 and 3.3e5 (gaussian-norm's estimate),
# 0.92-0.95x at 5.2e5 and 1.0e6 where the basis at X is most of the call
# (smoothing_spline, M=340, n=8), and 0.66-0.78x from 1e6 where the products are
_PARALLEL_MADDS = 2**20
_PENDING_VALUES = 2**17  # values a finished pool slice may hold, at most
# the most threads predict_bar runs machines on. Each thread holds a (len(X),
# n) cross-gram and its pending values: on additive-gram-plugin's sweep, with
# the pool sized for 1, 2, 4, 8 and 16 CPUs, peak RSS read 72.7, 75.4, 82.2,
# 92.0 and 98.6 MB. Speed was measured on 2 CPUs only
_MAX_MACHINE_THREADS = 2
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


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
    """Evaluate the averaged estimate at new points: an ordered fold over the
    machines, ``acc = v_0; acc += v_1; ...; acc / s``, with the basis at
    ``X`` evaluated once.

    Where one machine's ``exact_gram`` cross-gram costs at least
    ``_PARALLEL_MADDS`` multiply-adds (``len(X) * M * n``) and every OpenBLAS
    of the process runs on one thread, as in a sweep, several machines'
    products run at once, on the calling thread and on the machine pool (see
    :func:`_machine_values`). Each product is the same BLAS call on the same
    operands, and the fold's order is unchanged, so the result is
    bit-identical to the serial one."""
    null, F = _prediction_basis(est.spec, est.fits[0].solve_path, X)
    values = _machine_values(est.fits, null, F)
    acc = next(values)
    for v in values:
        acc += v
    return acc / est.s


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, so ``taskset``
    bounds it, or ``os.cpu_count()`` where there is no such call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool() -> ThreadPoolExecutor | None:
    """The machine pool, made on first use with one thread fewer than
    ``min(_cpus(), _MAX_MACHINE_THREADS)`` and shared by every
    :func:`predict_bar` of the process; ``None`` on one CPU."""
    global _POOL
    with _POOL_LOCK:
        threads = min(_cpus(), _MAX_MACHINE_THREADS)
        if _POOL is None and threads > 1:
            _POOL = ThreadPoolExecutor(threads - 1, thread_name_prefix="dckrr-machines")
        return _POOL


def _machine_threads() -> int:
    """The most threads a :func:`predict_bar` of this process has run its
    machines on: one more than the machine pool's, or 1 where no pool was made."""
    pool = _POOL
    return 1 if pool is None else 1 + pool._max_workers


def _drop_pool() -> None:
    """Forget the pool in a forked child, whose copy of it has no threads:
    the child's first parallel :func:`predict_bar` makes its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


# (get, set) thread-count symbols of an OpenBLAS build, tried in order
OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


def _openblas_libraries() -> dict[str, tuple]:
    """``name -> (get, set)`` thread-count functions of each OpenBLAS library
    mapped into this process, by file name; empty where there is none or
    ``/proc/self/maps`` is missing (MKL, macOS)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping that is not a loadable library
            continue
        for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found[os.path.basename(path)] = (get, put)
                break
    return found




@functools.cache
def _openblas_thread_getters() -> tuple:
    """The thread-count getters of the process's OpenBLAS libraries, looked
    up once (NumPy's and SciPy's are mapped before this module is imported)."""
    return tuple(get for get, _ in _openblas_libraries().values())


def _blas_on_one_thread() -> bool:
    """Whether every OpenBLAS of the process runs on one thread, as in a
    :func:`~dckrr.simlab.run_sweep`; ``False`` where there is none, as another
    BLAS's thread count is unknown. Machine threads beside BLAS threads would
    compete for the cores."""
    getters = _openblas_thread_getters()
    return bool(getters) and all(get() == 1 for get in getters)


def _machine_values(fits, null, F) -> Iterator[NDArray[np.float64]]:
    """Each machine's values from ``(null, F)``, in machine order.

    The machines are cut into consecutive slices of ``ceil(s / threads)``
    machines, at most ``max(1, _PENDING_VALUES // len(F))``, and each round
    of ``threads`` slices computes the first on the calling thread, whose
    values are yielded as they come, and the others on the machine pool, each
    with its own cross-gram buffer, whose values are yielded after, in order.
    So at most ``threads - 1`` finished slices are held at once. ``threads``
    is 1, and every slice runs on the calling thread, on the
    ``truncated_feature`` path (one ``len(X) x M`` gemv a machine), below
    the gate, with one machine, with one CPU, or with an OpenBLAS on more
    than one thread; otherwise it is one more than the pool's. A pool task
    runs in a copy of the caller's context (NumPy's error state is a context
    variable), calls no public ``dckrr`` function (the benchmark's tracer
    keeps one span stack for all threads) and never waits on the pool; its
    exception is raised here when its values are reached.
    """
    large = (len(fits) > 1 and fits[0].solve_path == "exact_gram"
             and F.size * fits[0].features.shape[0] >= _PARALLEL_MADDS)
    pool = _pool() if large and _blas_on_one_thread() else None
    threads = 1 if pool is None else 1 + pool._max_workers
    width = min(-(-len(fits) // threads), max(1, _PENDING_VALUES // len(F)))
    slices = [fits[j : j + width] for j in range(0, len(fits), width)]
    for r in range(0, len(slices), threads):
        mine, *theirs = slices[r : r + threads]
        pending = [pool.submit(copy_context().run, _slice_values, part, null, F) for part in theirs]
        try:
            yield from _values(mine, null, F)
            while pending:
                yield from pending.pop(0).result()
        finally:
            for task in pending:
                task.cancel()


def _slice_values(fits, null, F) -> list[NDArray[np.float64]]:
    """A pool task: one slice's values, computed with a buffer of its own."""
    return list(_values(fits, null, F))


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
