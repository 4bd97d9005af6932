"""The benchmark's workloads and their inputs.

Three workloads are single ``(N, rho)`` sweep cells run through the command
line (``dckrr.cli.main(["sweep", ...])``); the fourth runs the library
pipeline of the README quick start on the Gaussian kernel. Every workload
runs with ``workers=1``; the BLAS thread count is left as the environment
sets it.

A run repeats whole rounds. Round ``r`` of a run with seed ``S`` uses the
replication seeds ``base_seed(S, r) .. base_seed(S, r) + reps_per_round - 1``,
so the same ``(S, r)`` always gives the same inputs.

This module imports nothing from ``dckrr``: ``child.py`` uses it to write
configs and the independent checks use it for the signal and the grids.
"""

from __future__ import annotations

import numpy as np

ROUND_STRIDE = 100_000  # replication seeds reserved for one run seed

SWEEP_FIELDS = {
    "spline-s512": dict(
        model="spline1d", c=1.0, N_list=(4096,), rho_list=(0.75,),
        lambda_task="testing", sigma2_mode="known", solve_path="truncated_feature",
    ),
    "spline-s6": dict(
        model="spline1d", c=1.0, N_list=(8192,), rho_list=(0.2,),
        lambda_task="estimation", sigma2_mode="known", solve_path="truncated_feature",
    ),
    "additive-gram-plugin": dict(
        model="additive2d", c=1.0, N_list=(2048,), rho_list=(0.4,),
        lambda_task="estimation", sigma2_mode="plugin", solve_path="exact_gram",
    ),
}

# Replications per round: a round of each workload takes about a second on a
# 2-core machine, so an 18-second run times enough rounds for a median.
REPS_PER_ROUND = {
    "spline-s512": 1,
    "spline-s6": 4,
    "additive-gram-plugin": 1,
    "gaussian-norm": 2,
}

# The Gaussian workload: gaussian_rkhs(d=1, scale=1, M=64) on spline1d data.
GAUSS = dict(model="spline1d", N=4096, s=64, M=64, scale=1.0, c=1.0, grid_size=512, sigma2=1.0)

WORKLOADS = tuple(SWEEP_FIELDS) + ("gaussian-norm",)


def is_sweep(workload: str) -> bool:
    return workload in SWEEP_FIELDS


def base_seed(seed: int, r: int, workload: str) -> int:
    return seed * ROUND_STRIDE + r * REPS_PER_ROUND[workload]


def sweep_fields(workload: str, seed: int, r: int) -> dict:
    """Keyword arguments of ``dckrr.simlab.SweepConfig`` for round ``r``."""
    return dict(
        SWEEP_FIELDS[workload],
        replications=REPS_PER_ROUND[workload],
        lambda_source="rates",
        sigma2_value=1.0,
        base_seed=base_seed(seed, r, workload),
        workers=1,
    )


def cli_config(fields: dict) -> dict:
    """The JSON config of ``dckrr sweep`` for the same fields."""
    return {
        "model": fields["model"],
        "c": fields["c"],
        "N_list": list(fields["N_list"]),
        "rho_list": list(fields["rho_list"]),
        "replications": fields["replications"],
        "lambda": {"source": fields["lambda_source"], "task": fields["lambda_task"]},
        "sigma2": {"mode": fields["sigma2_mode"], "value": fields["sigma2_value"]},
        "solve_path": fields["solve_path"],
        "base_seed": fields["base_seed"],
        "workers": fields["workers"],
    }


def signal(model: str, X: np.ndarray) -> np.ndarray:
    """Unit-amplitude truth of each model, written out from its definition."""
    X = np.asarray(X, dtype=np.float64)
    if model == "spline1d":
        x = X if X.ndim == 1 else X[:, 0]
        return 0.6 * np.sin(1.5 * np.pi * x)
    return 0.4 * np.sin(1.5 * np.pi * X[:, 0]) + 0.1 * (0.5 - X[:, 1]) ** 3


def grid(model: str, size: int | None = None) -> np.ndarray:
    """Midpoint evaluation grid: 512 points in 1-D, 64 x 64 in 2-D."""
    size = size or (512 if model == "spline1d" else 64)
    axis = (np.arange(size) + 0.5) / size
    if model == "spline1d":
        return axis
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g1.reshape(-1), g2.reshape(-1)])
