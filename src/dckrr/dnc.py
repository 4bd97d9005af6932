"""Divide-and-conquer pipeline: partition, per-machine fits, averaging.

``partition`` deals a :class:`~dckrr.solver.Dataset` of ``N`` points into
``s`` machines of equal size ``n = floor(N/s)`` (the remainder is left out),
so a machine's data is some rows of the sample. ``fit_all`` and
:func:`xi_diagnostic` each gather every machine's rows at once,
``data.xs[part.assignment]``, and read machine ``j`` as row ``j``. ``fit_all``
fits each machine independently, a block of machines at a time, and averages
them, in machine order, into a :class:`DncEstimate`, which keeps the gathered
rows; the plug-in variance reads them there and gathers none of its own. A block
shares one evaluation of the basis and makes each BLAS product for all its
machines in one stacked call, and each fit has the bits of fitting its
machine alone. A ``truncated_feature`` block allocates one design array and
builds its basis in cache-sized row tiles, so it holds one block-sized array,
not three, and forms its normal matrices in stacks of bounded size. An
``exact_gram`` fit keeps its basis at its design points, so the estimate's
coefficients, :func:`predict_bar` and the plug-in variance read it
instead of evaluating it again. :func:`predict_bar` evaluates the basis at its
points once.

Where the work of one machine is large and every OpenBLAS of the process runs
on one thread, as in a sweep, both run their machines on the calling thread and
on the machine pool, sized by the CPUs the process may run on, up to
``_MAX_MACHINE_THREADS``: ``fit_all`` its blocks where each holds one machine,
and :func:`predict_bar` its ``exact_gram`` products where each machine's
cross-gram is large. A sweep's several ``workers`` fill the cores, so under
them the machines run in turn. Both take the results back in machine order
(:func:`_in_order`), so the bits, and the error raised, are those of running
the machines one after another. The bits also depend on the BLAS thread
count, which :func:`~dckrr.simlab.run_sweep` fixes at one; outside a sweep it
is the caller's.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections.abc import Iterator, Mapping
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
from types import MappingProxyType

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

# design rows per block of machines that fit_all fits together. fit_all runs
# its blocks on the machine pool only where a block holds one machine, n >
# _BLOCK_ROWS // 2. Timed against the calling thread alone on a 2-core host
# with one BLAS thread (six blocks of smoothing_spline at M=128 or additive at
# d=2, M=200, both solve paths; medians of 21 alternating timings; two runs),
# the pool took 1.24-1.33x the time at n=8 (64-machine blocks of small
# GIL-bound solves; exact_gram 0.98-1.16x), 0.68-1.01x at n=97, 0.68-0.93x at
# 146, 0.67-0.94x at 256, 0.75-0.95x at 341, 0.68-0.97x at 512 and 0.65-0.82x
# at 1365 (truncated_feature). A third run, while other tenants of the host
# took half its CPU time, read 1.1-2.8x at every n. On whole fit_all calls of
# the sweep workloads' cells (medians of 30), it took 1.19-1.36x on
# spline-s512 (n=8), 0.72-0.73x on spline-s6 (n=1365) and 0.77-0.83x on
# additive-gram-plugin (n=97). Blocks of several machines lose at n=8 and
# gain less, or nothing, from run to run at n=97-256, so they stay serial
_BLOCK_ROWS = 512
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
# True in a thread whose fit_all and predict_bar run their machines in turn:
# each of a sweep's several workers (see simlab._run_cell), which fill the
# cores themselves. On a 2-core host with one BLAS thread (12 alternating
# pairs, one sweep of 16 replications of the spline1d cell at N=8192,
# rho=0.2, whose 6 machines of 1365 rows fit_all ran on the pool), the pool
# took 1.39 s against 1.30 s serially on 2 workers (faster in 3 of 12) and
# 1.55 s against 1.43 s on 4 (1 of 12). predict_bar's gained nothing on 2
# workers: 8 replications of the additive2d plug-in cell at N=2048, rho=0.4
# took 0.79 s with the machines in turn against 0.82 s on the pool (10 pairs)
_MACHINES_IN_TURN: ContextVar[bool] = ContextVar("machines_in_turn", default=False)


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
    """Fit every machine and average, in machine order.

    The machines' rows are gathered at once, machine ``j`` as row ``j``, and
    kept on the estimate; the :class:`Dataset` was checked when it was built. The
    machines are fitted in blocks of ``max(1, 512 // n)`` machines, about 512
    design rows: a block evaluates the basis once and stacks its machines'
    products (see :func:`~dckrr.solver._fit_block`), and each of its fits
    equals :func:`~dckrr.solver.krr_fit` on that machine's rows alone, bit for
    bit. The averages ``beta`` and ``coeffs`` are ordered folds over the fits
    from zeros.
    Where a block holds one machine (``n > 256``), there is more than one
    block and every OpenBLAS of the process runs on one thread, as in a
    sweep on one worker, the blocks run on the calling thread and on the
    machine pool (see :func:`_machine_pool`), and their fits are taken back
    in machine order (see :func:`_in_order`): the fits, the averages and a
    raised ``LinAlgError`` are those of fitting the blocks in turn. Smaller
    blocks, a host with one CPU, one of a sweep's several workers, and a BLAS
    on more threads (or not OpenBLAS) fit serially. A sweep runs its
    replications on threads of its own (see :func:`~dckrr.simlab.run_sweep`).
    ``workers`` is accepted as ``None`` or 1 only, and any other value raises
    ``ValueError``.
    """
    if workers not in (None, 1):
        raise ValueError(f"workers must be None or 1, got {workers!r}")
    xs, ys = data.xs[part.assignment], data.ys[part.assignment]
    xs.flags.writeable = ys.flags.writeable = False
    step = max(1, _BLOCK_ROWS // part.n)
    blocks = [(spec, xs[j : j + step], ys[j : j + step], lam, solve_path)
              for j in range(0, part.s, step)]
    pool = _machine_pool() if step == 1 and len(blocks) > 1 else None
    fits = list(_in_order(_fit_block, blocks, pool))
    # ordered folds over the machines, from zeros. np.add.reduce(axis=0) over
    # the stacked fits would sum a single column (null_dim 1) pairwise, and
    # np.add.accumulate kept the order but gained 0.03 ms a fold at s = 512
    # and took 2.6x the time and 13 MB more at s = 2353, M = 340
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
    :func:`fit_all` and :func:`predict_bar` of the process; ``None`` on one
    CPU."""
    global _POOL
    with _POOL_LOCK:
        threads = min(_cpus(), _MAX_MACHINE_THREADS)
        if _POOL is None and threads > 1:
            _POOL = ThreadPoolExecutor(threads - 1, thread_name_prefix="dckrr-machines")
        return _POOL


def _machine_threads() -> int:
    """The most threads a :func:`fit_all` or :func:`predict_bar` of this
    process has run its machines on: one more than the machine pool's, or 1
    where no pool was made."""
    return _threads(_POOL)


def _drop_pool() -> None:
    """Forget the pool in a forked child, whose copy of it has no threads:
    the child's first parallel :func:`fit_all` or :func:`predict_bar` makes
    its own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


# (get, set) thread-count symbols of an OpenBLAS build, tried in order
OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


@functools.cache
def _openblas_libraries() -> Mapping[str, tuple]:
    """``name -> (get, set)`` thread-count functions of each OpenBLAS library
    mapped into this process, by file name, read-only; empty where there is
    none or ``/proc/self/maps`` is missing (MKL, macOS). Looked up once per
    process: NumPy's and SciPy's are mapped before this module is imported."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
    except OSError:
        return MappingProxyType({})
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
    return MappingProxyType(found)


def _machine_pool() -> ThreadPoolExecutor | None:
    """The machine pool where its threads would not compete for the cores:
    every OpenBLAS of the process on one thread (see
    :func:`_blas_on_one_thread`) and the caller not one of a sweep's several
    workers (see ``_MACHINES_IN_TURN``); otherwise, or on one CPU, ``None``."""
    return None if _MACHINES_IN_TURN.get() or not _blas_on_one_thread() else _pool()


def _blas_on_one_thread() -> bool:
    """Whether every OpenBLAS of the process runs on one thread, as in a
    :func:`~dckrr.simlab.run_sweep`; ``False`` where there is none, as another
    BLAS's thread count is unknown. Machine threads beside BLAS threads would
    compete for the cores."""
    libs = _openblas_libraries()
    return bool(libs) and all(get() == 1 for get, _ in libs.values())


def _machine_values(fits, null, F) -> Iterator[NDArray[np.float64]]:
    """Each machine's values from ``(null, F)``, in machine order.

    The machines are cut into consecutive slices of ``ceil(s / threads)``
    machines, at most ``max(1, _PENDING_VALUES // len(F))``, which
    :func:`_in_order` runs, each slice with its own cross-gram buffer, so at
    most ``threads - 1`` finished slices are held at once. ``threads`` is 1,
    and every slice runs on the calling thread, on the ``truncated_feature``
    path (one ``len(X) x M`` gemv a machine), below the gate, with one
    machine, or where :func:`_machine_pool` gives no pool; otherwise it is
    one more than the pool's.
    """
    large = (len(fits) > 1 and fits[0].solve_path == "exact_gram"
             and F.size * fits[0].features.shape[0] >= _PARALLEL_MADDS)
    pool = _machine_pool() if large else None
    width = min(-(-len(fits) // _threads(pool)), max(1, _PENDING_VALUES // len(F)))
    slices = [(fits[j : j + width], null, F) for j in range(0, len(fits), width)]
    return _in_order(_values, slices, pool)


def _threads(pool: ThreadPoolExecutor | None) -> int:
    """The threads :func:`_in_order` runs calls on: the caller and ``pool``'s."""
    return 1 if pool is None else 1 + pool._max_workers


def _in_order(fn, calls, pool: ThreadPoolExecutor | None) -> Iterator:
    """The items of ``fn(*args)`` for each ``args`` of ``calls``, in order.

    The calls run in rounds of :func:`_threads` calls: the first of a round on
    the calling thread, whose items are yielded as they come, and the others
    on ``pool``, whose items are yielded after, in order, so at most
    ``threads - 1`` finished calls are held at once; with no pool every call
    runs on the calling thread. A pool call that has not started when its
    items are reached, as when the pool is busy with other callers' calls, is
    cancelled and run on the calling thread instead, so no caller waits on a
    queue: at worst it runs all its calls itself, as a loop would. A pool call
    runs in a copy of the caller's context (NumPy's error state is a context
    variable), calls no public ``dckrr`` function (the benchmark's tracer
    keeps one span stack for all threads) and never waits on the pool. Its
    exception is raised here when its items are reached, so the one raised is
    the first in call order, as in a loop over the calls; a round's later
    calls are cancelled or waited for, and their exceptions dropped, before it
    propagates.
    """
    threads = _threads(pool)
    for r in range(0, len(calls), threads):
        mine, *theirs = calls[r : r + threads]
        pending = [(pool.submit(copy_context().run, _pool_call, fn, args), args)
                   for args in theirs]
        try:
            yield from fn(*mine)
            while pending:
                task, args = pending.pop(0)
                yield from (fn(*args) if task.cancel() else task.result())
        finally:
            tasks = [task for task, _ in pending]
            for task in tasks:
                task.cancel()
            wait(tasks)


def _pool_call(fn, args) -> list:
    """A call of :func:`_in_order` on the pool: the items of ``fn(*args)``."""
    return list(fn(*args))


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
