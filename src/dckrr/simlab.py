"""Simulation lab: data generation, replicated sweeps, aggregation.

Two models are built in, each a row of one table:

* ``spline1d`` — ``y = c * 0.6 sin(1.5 pi x) + eps`` with ``x ~ Unif[0,1]``;
* ``additive2d`` — ``y = c * (0.4 sin(1.5 pi x1) + 0.1 (0.5 - x2)^3) + eps``;

both with standard normal noise. ``spline1d`` is fitted in the
smoothing-spline space ``W^m[0,1]`` (null space of polynomials of degree
``< m`` unpenalized), which contains its non-periodic signal; ``additive2d``
uses the additive periodic Sobolev family. A sweep runs a grid of
``(N, rho)`` cells with ``s = round(N^rho)`` machines, replicated over
seeds; each replication reports the grid MSE of the averaged estimate and
the outcome of the Wald-type test. Replication ``r`` uses seed
``base_seed + r`` on a counter-based generator, and a sweep runs every
OpenBLAS in the process on one thread, so results are independent of
execution order, worker count and the host's core count. Replications run on
``workers`` threads. On one worker, :func:`~dckrr.dnc.fit_all` and
:func:`~dckrr.dnc.predict_bar` run an estimate's machines on a pool of
their own where each machine's fit or grid product is large, with the bits
of running them in turn; several workers fill the cores, and each runs its
machines in turn.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.typing import NDArray

from dckrr import dnc, rates
from dckrr.dnc import _openblas_libraries
from dckrr.inference import estimate_sigma2, test_statistic
from dckrr.solver import SOLVE_PATHS
from dckrr.spectra import Spectrum, _as_points, spectrum_for

__all__ = [
    "MODELS",
    "SweepConfig",
    "FieldError",
    "check_fields",
    "as_int",
    "as_real",
    "as_tuple_of",
    "CellResult",
    "ExperimentResult",
    "SweepError",
    "signal",
    "generate",
    "mse_of_estimate",
    "run_sweep",
]


@dataclass(frozen=True)
class _Model:
    """A simulation model: the kernel family it is fitted in, its design
    dimension ``d``, the default midpoints per axis of its MSE grid, and its
    unit-amplitude signal at ``(n, d)`` points."""

    family: str
    d: int
    grid_size: int
    unit: Callable[[NDArray[np.float64]], NDArray[np.float64]]


_MODELS = {
    "spline1d": _Model("spline", 1, 512, lambda x: 0.6 * np.sin(1.5 * np.pi * x[..., 0])),
    "additive2d": _Model(
        "additive", 2, 64,
        lambda x: 0.4 * np.sin(1.5 * np.pi * x[..., 0]) + 0.1 * (0.5 - x[..., 1]) ** 3,
    ),
}

MODELS = tuple(_MODELS)


def _model(name: str) -> _Model:
    if name not in _MODELS:
        raise ValueError(f"unknown model {name!r}")
    return _MODELS[name]


class SweepError(RuntimeError):
    """Raised when more than 10% of a cell's replications fail, or before
    any replication of the sweep runs when a cell's machines hold too few
    points to fit."""


class FieldError(ValueError):
    """A config field of the wrong type or out of range: ``field`` names it
    and ``problem`` says what is wrong."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


# Strict converters shared by ``SweepConfig`` and ``cli.DiagnoseConfig``.
# Each returns its value in the declared type or raises with a message that
# reads after the field's name; none truncates, parses a string or takes a
# bool for a number.


def as_int(value) -> int:
    """``value`` as an ``int``: an integer that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def as_real(value) -> float:
    """``value`` as a finite ``float``: an integer or a float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def as_tuple_of(item):
    """A converter of a non-empty list or tuple to a tuple of ``item``s."""

    def convert(value) -> tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise TypeError(f"must be a non-empty list, got {value!r}")
        out = []
        for i, v in enumerate(value):
            try:
                out.append(item(v))
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"entry {i} {exc}") from exc
        return tuple(out)

    return convert


def _optional(convert):
    return lambda value: None if value is None else convert(value)


# The converter of each declared field type of a config dataclass.
_CONVERTERS = {
    "str": lambda value: value,  # each str field is checked against its choices
    "int": as_int,
    "float": as_real,
    "int | None": _optional(as_int),
    "float | None": _optional(as_real),
    "tuple[int, ...]": as_tuple_of(as_int),
    "tuple[float, ...]": as_tuple_of(as_real),
}


def check_fields(config, checks) -> None:
    """Convert each field of the frozen dataclass ``config`` to its declared
    type with the converters above, then run ``checks()``: its
    ``(field, ok, problem)`` triples read the converted fields, and the first
    that is not ``ok`` raises ``FieldError`` naming its field."""
    for f in fields(config):
        try:
            value = _CONVERTERS[f.type](getattr(config, f.name))
        except (TypeError, ValueError) as exc:
            raise FieldError(f.name, str(exc)) from exc
        object.__setattr__(config, f.name, value)
    for name, ok, problem in checks():
        if not ok:
            raise FieldError(name, f"{problem}, got {getattr(config, name)!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one replicated experiment grid, and the schema of
    ``dckrr sweep`` configs: a field ``lambda_<key>`` or ``sigma2_<key>`` is
    the key ``<key>`` of that JSON section, every other field a top-level
    key, and the defaults here are the only defaults.

    Every field is converted to its declared type with the strict converters
    above, so ``2.5`` is no ``int`` and ``"0.3"`` no ``float``; lists become
    tuples. A value of the wrong type or out of range raises ``FieldError``
    naming its field.
    """

    SECTIONS = ("lambda", "sigma2")  # the JSON objects; not a field

    model: str = "spline1d"
    c: float = 1.0
    N_list: tuple[int, ...] = (1024,)
    rho_list: tuple[float, ...] = (0.3,)
    replications: int = 50
    alpha: float = 0.05
    lambda_source: str = "rates"  # or "explicit"
    lambda_task: str = "testing"
    lambda_value: float | None = None
    sigma2_mode: str = "known"  # or "plugin"
    sigma2_value: float = 1.0
    base_seed: int = 0
    solve_path: str = "truncated_feature"
    workers: int = 1
    m: int = 2
    grid_size: int | None = None

    def __post_init__(self):
        check_fields(self, lambda: (
            ("model", self.model in MODELS, f"must be one of {MODELS}"),
            ("lambda_source", self.lambda_source in ("rates", "explicit"),
             "must be 'rates' or 'explicit'"),
            ("lambda_task", self.lambda_task in rates.TASKS, f"must be one of {rates.TASKS}"),
            ("sigma2_mode", self.sigma2_mode in ("known", "plugin"), "must be 'known' or 'plugin'"),
            ("solve_path", self.solve_path in SOLVE_PATHS, f"must be one of {SOLVE_PATHS}"),
            ("replications", self.replications >= 1, "must be >= 1"),
            ("N_list", min(self.N_list) >= 4, "must hold values >= 4"),
            ("rho_list", all(0.0 < r < 1.0 for r in self.rho_list), "must hold values in (0, 1)"),
            ("alpha", 0.0 < self.alpha < 1.0, "must lie in (0, 1)"),
            ("lambda_value", self.lambda_source != "explicit"
             or (self.lambda_value is not None and self.lambda_value > 0),
             "must be positive for an explicit lambda"),
            # a rate-rule lambda never reads it, so a value here is a mistake
            ("lambda_value", self.lambda_source == "explicit" or self.lambda_value is None,
             "must be null for a rate-rule lambda"),
            ("sigma2_value", self.sigma2_mode != "known" or self.sigma2_value > 0,
             "must be positive for a known sigma2"),
            ("grid_size", self.grid_size is None or self.grid_size >= 2, "must be >= 2"),
            ("base_seed", self.base_seed >= 0, "must be >= 0"),
            ("workers", self.workers >= 1, "must be >= 1"),
        ))
        # W^m[0,1] has closed-form eigenpairs for m <= 2 only, so the spline
        # family takes 2; and with mu_k ~ k^-2 the truncation rule needs more
        # than M_CAP eigenfunctions for any lambda below about 1e-2
        if self.family == "spline" and self.m != 2:
            raise FieldError("m", f"must be 2 for {self.model}, got m={self.m}")
        if self.m < 2:
            raise FieldError("m", f"must be >= 2, got {self.m!r}")

    @property
    def d(self) -> int:
        return _MODELS[self.model].d

    @property
    def family(self) -> str:
        return _MODELS[self.model].family


@dataclass(frozen=True)
class CellResult:
    """Aggregates for one (N, rho) grid cell."""

    N: int
    rho: float
    s: int
    n: int
    lam: float
    mse_mean: float
    mse_stderr: float
    reject_rate: float
    reject_stderr: float
    reps: int
    dropped: int
    failures: int


@dataclass(frozen=True)
class ExperimentResult:
    """The cells of a sweep, and the thread count of each OpenBLAS library,
    by file name, while they ran (empty where none was found)."""

    cells: tuple[CellResult, ...] = field(default_factory=tuple)
    blas_threads: dict[str, int] = field(default_factory=dict)


def signal(model: str, X: NDArray[np.float64]) -> NDArray[np.float64]:
    """The unit-amplitude true signal of a model at design points: ``(n,
    d)``, or ``(n,)`` when ``d = 1``; points of another dimension raise
    ``ValueError``."""
    row = _model(model)
    return row.unit(_as_points(X, row.d))


def generate(model: str, N: int, seed: int, c: float = 1.0) -> dnc.Dataset:
    """Draw a sample: uniform design on ``[0, 1]^d``, signal scaled by
    ``c``, N(0,1) noise. The design is ``(N, d)``, or ``(N,)`` when ``d = 1``.

    Deterministic given ``seed`` (counter-based generator, stream 0).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    d = _model(model).d
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    xs = rng.uniform(0.0, 1.0, size=(N, d))
    ys = c * signal(model, xs) + rng.standard_normal(N)
    return dnc.Dataset(xs=xs[:, 0] if d == 1 else xs, ys=ys)


def _eval_grid(d: int, grid_size: int) -> NDArray[np.float64]:
    """The ``grid_size^d`` midpoints of the regular grid on ``[0, 1]^d``, as
    ``(grid_size^d, d)`` rows with the last coordinate fastest, or
    ``(grid_size,)`` when ``d = 1``, as :func:`generate`'s design."""
    axis = (np.arange(grid_size) + 0.5) / grid_size
    grid = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return grid[:, 0] if d == 1 else grid


def mse_of_estimate(
    est: dnc.DncEstimate, model: str, c: float, grid_size: int | None = None
) -> float:
    """Grid-L2 error of the averaged estimate against ``c * signal``, over
    ``grid_size`` midpoints per axis of ``[0, 1]^d``: by default the model's
    own, 512 for ``spline1d`` and 64 (a 64 x 64 grid) for ``additive2d``.
    """
    row = _model(model)
    grid_size = row.grid_size if grid_size is None else grid_size
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    grid = _eval_grid(row.d, grid_size)
    truth = c * signal(model, grid)
    return float(np.mean((dnc.predict_bar(est, grid) - truth) ** 2))


def _cell_lambda(cfg: SweepConfig, n: int) -> float:
    """Regularization for one cell.

    Rate-rule lambdas are evaluated at the subsample size ``n`` — the
    per-machine problem is the one being regularized — while explicit
    lambdas are used as given.
    """
    if cfg.lambda_source == "explicit":
        return cfg.lambda_value
    rx = rates.prescribe(cfg.family, cfg.m, cfg.d, max(n, 2), cfg.lambda_task)
    return rx.lam


def _run_replication(cfg: SweepConfig, N: int, s: int, lam: float, spec: Spectrum, seed: int):
    data = generate(cfg.model, N, seed, cfg.c)
    part = dnc.partition(data, s, seed)
    est = dnc.fit_all(spec, data, part, lam, cfg.solve_path)
    mse = mse_of_estimate(est, cfg.model, cfg.c, cfg.grid_size)
    if cfg.sigma2_mode == "plugin":
        sigma2 = estimate_sigma2(est)
    else:
        sigma2 = cfg.sigma2_value
    report = test_statistic(est, N=part.N_effective, sigma2=sigma2, alpha=cfg.alpha)
    return mse, 1.0 if report.reject else 0.0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS library on one thread, and restore
    each library's count afterwards, also on an exception. Yields the counts
    in force, by file name. A BLAS other than OpenBLAS is left alone.

    NumPy's ``X.T @ X`` and SciPy's ``cho_factor`` give different bits on one
    and two threads, so one thread makes a sweep's bytes independent of the
    host's core count; and each solve is too small to gain from more. The
    libraries are looked up once per process."""
    libs = _openblas_libraries()
    before = {name: get() for name, (get, _) in libs.items()}
    try:
        for _, put in libs.values():
            put(1)
        yield {name: get() for name, (get, _) in libs.items()}
    finally:
        for name, (_, put) in libs.items():
            put(before[name])


def _resolve_cell(cfg: SweepConfig, N: int, rho: float) -> tuple:
    """``(N, rho, s, n, lam, spec)`` of one cell, which :func:`_run_cell`
    runs; a cell whose ``n`` is below the null space's dimension raises
    :class:`SweepError`, and a spectrum that does not resolve ``lam``
    :class:`~dckrr.spectra.TruncationError`."""
    s = max(1, math.floor(N**rho + 0.5))
    n = N // s
    lam = _cell_lambda(cfg, n)
    spec = spectrum_for(cfg.family, cfg.m, cfg.d, lam)
    if n < spec.null_dim:  # the unpenalized null space alone is underdetermined
        raise SweepError(
            f"cell N={N}, rho={rho}: each machine holds n={n} points, fewer than "
            f"the null_dim={spec.null_dim} functions of the unpenalized null space"
        )
    return N, rho, s, n, lam, spec


def _run_cell(
    cfg: SweepConfig, N: int, rho: float, s: int, n: int, lam: float, spec: Spectrum
) -> CellResult:
    seeds = [cfg.base_seed + r for r in range(cfg.replications)]

    def one(seed):
        try:
            return _run_replication(cfg, N, s, lam, spec, seed)
        except np.linalg.LinAlgError as exc:
            return exc  # a numerical failure: recorded, not fatal

    if cfg.workers > 1:
        # the workers fill the cores, so each fits and evaluates its estimates'
        # machines in turn
        with ThreadPoolExecutor(max_workers=cfg.workers, initializer=dnc._MACHINES_IN_TURN.set,
                                initargs=(True,)) as pool:
            outcomes = list(pool.map(one, seeds))
    else:
        outcomes = [one(seed) for seed in seeds]

    failed = [out for out in outcomes if isinstance(out, Exception)]
    failures = len(failed)
    if failures:
        first = f"the first: {type(failed[0]).__name__}: {failed[0]}"
        if failures > 0.1 * cfg.replications:
            raise SweepError(
                f"cell N={N}, rho={rho}: {failures}/{cfg.replications} "
                f"replications failed; {first}"
            ) from failed[0]
        warnings.warn(
            f"cell N={N}, rho={rho}: {failures} replications failed; {first}",
            UserWarning,
        )
    done = [out for out in outcomes if not isinstance(out, Exception)]  # ordered fold
    mses_a = np.array([mse for mse, _ in done])
    rej_a = np.array([reject for _, reject in done])
    k = len(mses_a)
    return CellResult(
        N=N, rho=rho, s=s, n=n, lam=lam,
        mse_mean=float(mses_a.mean()),
        mse_stderr=float(mses_a.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0,
        reject_rate=float(rej_a.mean()),
        reject_stderr=float(rej_a.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0,
        reps=k,
        dropped=N - s * n,
        failures=failures,
    )


def run_sweep(cfg: SweepConfig) -> ExperimentResult:
    """Run the full (N, rho) grid.

    Per cell: ``s = max(1, round(N^rho))`` (half-up), ``n = floor(N/s)``;
    replication ``r`` uses seed ``base_seed + r``. A replication that raises
    a numerical failure, a ``LinAlgError`` (a fit that is not positive
    definite, or residual degrees of freedom that are not positive), is
    counted and warned of; a cell with more than
    10% failures raises :class:`SweepError` from the first failure in
    replication order, whose
    type and message it states. Every cell's ``s``, ``n``, ``lambda`` and
    spectrum are resolved before the first replication of the sweep, so a cell
    whose ``n`` is below the null space's dimension raises :class:`SweepError`,
    and one whose spectrum cannot resolve its ``lambda``
    :class:`~dckrr.spectra.TruncationError`, before any work runs. Any other
    exception, a ``ValueError`` or ``RuntimeError`` included, is a
    programming error and propagates. Aggregation is an ordered fold over the
    replication index, so the result is identical for any worker count.

    The cells run with every OpenBLAS library in the process on one thread;
    each library's previous count is restored on return and on an
    exception. The counts are process-wide, so other BLAS work in the process
    meanwhile runs on one thread too. ``cfg.workers`` threads run the
    replications; on one worker, :func:`~dckrr.dnc.fit_all` and
    :func:`~dckrr.dnc.predict_bar` may run an estimate's machines on a pool
    of their own, and on several they run them in turn. The sweep runs in numpy's
    default floating-point error state (underflow ignored, the rest warned
    of), whatever the caller's, as its pool threads start in that state: an
    underflow in a spectrum's or a replication's arithmetic is no failure.
    """
    with _one_blas_thread() as blas_threads, np.errstate(all="warn", under="ignore"):
        resolved = [_resolve_cell(cfg, N, rho) for N in cfg.N_list for rho in cfg.rho_list]
        cells = tuple(_run_cell(cfg, *cell) for cell in resolved)
    return ExperimentResult(cells=cells, blas_threads=blas_threads)
