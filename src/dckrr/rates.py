"""Tuning rules and machine-count bounds for each kernel family.

For a family, smoothness order, dimension, sample size, and task
(estimation or testing), :func:`prescribe` returns the regularization level
``lambda``, the largest admissible machine count ``s_max``, and the optimal
rate. The bounds are order statements: they are evaluated numerically with
unit constants and natural logarithms, and the symbolic exponents are the
authoritative output. The numeric ``lambda`` is scaled by a fixed constant
per family (:func:`leading_eigenvalue`; for ``spline`` and ``additive`` the
periodic Sobolev ``mu_1``), not by the ``mu_1`` of the fitted spectrum: that of
``smoothing_spline(2)`` is 3.11 times larger and the 1-D Gaussian's Nyström
``mu_1`` 3.66 times, so the rule is not invariant to eigenvalue normalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

__all__ = ["RatePrescription", "prescribe", "rho_max", "leading_eigenvalue", "FAMILIES", "TASKS"]

FAMILIES = ("spline", "additive", "gaussian", "thin_plate")
TASKS = ("estimation", "testing")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RatePrescription:
    family: str
    task: str
    m: int
    d: int
    N: int
    lam: float
    s_max: int
    rate: float
    exponents: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


def leading_eigenvalue(family: str, m: int) -> float:
    if family in ("spline", "additive"):
        return (2.0 * math.pi) ** (-2 * m)
    if family == "gaussian":
        return _GOLDEN**3
    return 1.0  # thin_plate


def _floor_smax(value: float) -> int:
    return max(1, math.floor(value))


def prescribe(family: str, m: int, d: int, N: int, task: str) -> RatePrescription:
    """Prescribed ``(lambda, s_max, rate)`` for a family and task.

    Side conditions on the smoothness order are enforced as errors;
    dimension conditions for the additive family produce warnings (the
    bound is still returned).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if N < 2:
        raise ValueError("N must be at least 2")
    if d < 1:
        raise ValueError("d must be a positive integer")
    logN = math.log(N)
    mu1 = leading_eigenvalue(family, m)
    warns: list[str] = []

    if family in ("spline", "additive"):
        if m < 1:
            raise ValueError("spline families require m > 1/2 (integer m >= 1)")
        if family == "spline" and d != 1:
            raise ValueError("spline family is one-dimensional")
        if task == "estimation":
            e_lam = -2.0 * m / (2 * m + 1)
            e_s = 2.0 * m / (2 * m + 1)
            e_rate = -m / (2 * m + 1.0)
            lam = mu1 * N**e_lam
            s_raw = N**e_s / (d * logN)
            rate = math.sqrt(d) * N**e_rate
            d_bound = N**e_s / logN
            exps = {"lambda_N": e_lam, "s_max_N": e_s, "rate_N": e_rate,
                    "rate_d": 0.5, "s_max_d": -1.0}
        else:
            e_lam = -4.0 * m / (4 * m + 1)
            e_s = (4.0 * m - 3) / (4 * m + 1)
            e_rate = -2.0 * m / (4 * m + 1)
            e_lam_d = -2.0 * m / (4 * m + 1)
            e_s_d = -4.0 * (2 * m + 1) / (4 * m + 1)
            e_rate_d = (2 * m + 1) / (2.0 * (4 * m + 1))
            lam = mu1 * d**e_lam_d * N**e_lam
            s_raw = d**e_s_d * N**e_s / logN
            rate = d**e_rate_d * N**e_rate
            d_bound = N ** ((4 * m - 3) / (4.0 * (2 * m + 1))) * logN ** (
                -(4 * m + 1) / (4.0 * (2 * m + 1))
            )
            exps = {"lambda_N": e_lam, "s_max_N": e_s, "rate_N": e_rate,
                    "lambda_d": e_lam_d, "s_max_d": e_s_d, "rate_d": e_rate_d}
        if family == "additive" and d >= d_bound:
            warns.append(
                f"d={d} violates the additive dimension bound (~{d_bound:.3g}) at N={N}"
            )
    elif family == "gaussian":
        if task == "estimation":
            lam = mu1 * math.sqrt(logN) / N
            s_raw = N / logN ** (d + 3)
            rate = logN**0.25 / math.sqrt(N)
            exps = {"lambda_N": -1.0, "lambda_log": 0.5, "s_max_N": 1.0,
                    "s_max_log": -(d + 3.0), "rate_N": -0.5, "rate_log": 0.25}
        else:
            lam = mu1 * logN**0.25 / N
            s_raw = N / logN ** (d + 3.5)
            rate = logN**0.125 / math.sqrt(N)
            exps = {"lambda_N": -1.0, "lambda_log": 0.25, "s_max_N": 1.0,
                    "s_max_log": -(d + 3.5), "rate_N": -0.5, "rate_log": 0.125}
    else:  # thin_plate
        if 2 * m <= d:
            raise ValueError("thin-plate prescriptions require 2m > d")
        if task == "estimation":
            e_lam = -2.0 * m / (2 * m + d)
            e_s = (2.0 * m - d) ** 2 / (2.0 * m * (2 * m + d))
            e_rate = -m / (2.0 * m + d)
        else:
            e_lam = -4.0 * m / (4 * m + d)
            e_s = (4.0 * m * m - 7.0 * d * m + d * d) / ((4.0 * m + d) * m)
            e_rate = -2.0 * m / (4 * m + d)
            if e_s <= 0:
                warns.append(
                    f"thin-plate testing s_max exponent nonpositive for m={m}, d={d}"
                )
        lam = mu1 * N**e_lam
        s_raw = N**e_s / logN
        rate = N**e_rate
        exps = {"lambda_N": e_lam, "s_max_N": e_s, "rate_N": e_rate}

    for msg in warns:
        warnings.warn(msg, UserWarning, stacklevel=2)
    return RatePrescription(
        family=family, task=task, m=m, d=d, N=N,
        lam=lam, s_max=_floor_smax(s_raw), rate=rate,
        exponents=exps, warnings=tuple(warns),
    )


def rho_max(family: str, m: int, d: int, N: int, task: str) -> float:
    """The machine-count bound on the ``rho = log s / log N`` scale."""
    rx = prescribe(family, m, d, N, task)
    return math.log(rx.s_max) / math.log(N)
