"""Tuning rules and machine-count bounds for each kernel family.

For a family, smoothness order, dimension, sample size, and task
(estimation or testing), :func:`prescribe` returns the regularization level
``lambda``, the largest admissible machine count ``s_max``, and the optimal
rate. Each rule is one set of exponents of ``N``, ``d`` and ``log N``
(:data:`_EXPONENTS`), and every number is that product of powers with unit
constants and natural logarithms, so the printed exponents are the rule.
The numeric ``lambda`` is scaled by a fixed constant per family
(:func:`leading_eigenvalue`; for ``spline`` and ``additive`` the periodic
Sobolev ``mu_1``), not by the ``mu_1`` of the fitted spectrum: that of
``smoothing_spline(2)`` is 3.11 times larger and the 1-D Gaussian's Nyström
``mu_1`` 3.66 times, so the rule is not invariant to eigenvalue normalization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

__all__ = ["RatePrescription", "prescribe", "leading_eigenvalue", "FAMILIES", "TASKS"]

FAMILIES = ("spline", "additive", "gaussian", "thin_plate")
TASKS = ("estimation", "testing")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# (m, d) -> the exponents of N, d and log N in lambda, s_max and the rate,
# keyed "<quantity>_<N|d|log>"; an absent exponent is 0
_SOBOLEV = {
    "estimation": lambda m, d: {
        "lambda_N": -2.0 * m / (2 * m + 1),
        "s_max_N": 2.0 * m / (2 * m + 1), "s_max_d": -1.0, "s_max_log": -1.0,
        "rate_N": -m / (2 * m + 1.0), "rate_d": 0.5,
    },
    "testing": lambda m, d: {
        "lambda_N": -4.0 * m / (4 * m + 1), "lambda_d": -2.0 * m / (4 * m + 1),
        "s_max_N": (4.0 * m - 3) / (4 * m + 1), "s_max_d": -4.0 * (2 * m + 1) / (4 * m + 1),
        "s_max_log": -1.0,
        "rate_N": -2.0 * m / (4 * m + 1), "rate_d": (2 * m + 1) / (2.0 * (4 * m + 1)),
    },
}
_EXPONENTS = {
    "spline": _SOBOLEV,
    "additive": _SOBOLEV,
    "gaussian": {
        "estimation": lambda m, d: {
            "lambda_N": -1.0, "lambda_log": 0.5,
            "s_max_N": 1.0, "s_max_log": -(d + 3.0),
            "rate_N": -0.5, "rate_log": 0.25,
        },
        "testing": lambda m, d: {
            "lambda_N": -1.0, "lambda_log": 0.25,
            "s_max_N": 1.0, "s_max_log": -(d + 3.5),
            "rate_N": -0.5, "rate_log": 0.125,
        },
    },
    "thin_plate": {
        "estimation": lambda m, d: {
            "lambda_N": -2.0 * m / (2 * m + d),
            "s_max_N": (2.0 * m - d) ** 2 / (2.0 * m * (2 * m + d)), "s_max_log": -1.0,
            "rate_N": -m / (2.0 * m + d),
        },
        "testing": lambda m, d: {
            "lambda_N": -4.0 * m / (4 * m + d),
            "s_max_N": (4.0 * m * m - 7.0 * d * m + d * d) / ((4.0 * m + d) * m), "s_max_log": -1.0,
            "rate_N": -2.0 * m / (4 * m + d),
        },
    },
}


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

    @property
    def rho_max(self) -> float:
        """The machine-count bound on the ``rho = log s / log N`` scale."""
        return math.log(self.s_max) / math.log(self.N)


def leading_eigenvalue(family: str, m: int) -> float:
    if family in ("spline", "additive"):
        return (2.0 * math.pi) ** (-2 * m)
    if family == "gaussian":
        return _GOLDEN**3
    return 1.0  # thin_plate


def _power(exps: dict, quantity: str, coef: float, d: int, N: int, logN: float) -> float:
    """``coef * d**e_d * N**e_N * logN**e_log`` with the exponents of
    ``quantity``, evaluated left to right; an absent exponent is 0."""
    e_d, e_N, e_log = (exps.get(f"{quantity}_{key}", 0) for key in ("d", "N", "log"))
    return coef * d**e_d * N**e_N * logN**e_log


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
    if family in ("spline", "additive") and m < 1:
        raise ValueError("spline families require m > 1/2 (integer m >= 1)")
    if family == "spline" and d != 1:
        raise ValueError("spline family is one-dimensional")
    if family == "thin_plate" and 2 * m <= d:
        raise ValueError("thin-plate prescriptions require 2m > d")
    logN = math.log(N)
    exps = _EXPONENTS[family][task](m, d)
    lam = _power(exps, "lambda", leading_eigenvalue(family, m), d, N, logN)
    s_raw = _power(exps, "s_max", 1.0, d, N, logN)
    rate = _power(exps, "rate", 1.0, d, N, logN)
    warns: list[str] = []
    if family == "additive" and s_raw <= 1:
        bound = (N ** exps["s_max_N"] * logN ** exps["s_max_log"]) ** (-1 / exps["s_max_d"])
        warns.append(f"d={d} violates the additive dimension bound (~{bound:.3g}) at N={N}")
    if family == "thin_plate" and exps["s_max_N"] <= 0:
        warns.append(f"thin-plate {task} s_max exponent nonpositive for m={m}, d={d}")

    for msg in warns:
        warnings.warn(msg, UserWarning, stacklevel=2)
    return RatePrescription(
        family=family, task=task, m=m, d=d, N=N,
        lam=lam, s_max=max(1, math.floor(s_raw)), rate=rate,
        exponents=exps, warnings=tuple(warns),
    )
