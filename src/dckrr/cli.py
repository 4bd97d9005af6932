"""Command-line front end: ``dckrr sweep|rates|diagnose``.

Configs and manifests are JSON; tabular results are CSV with dot decimal
separators, LF line endings, and 17 significant digits. Every run writes a
``manifest.json`` listing each output file with its SHA-256 hash, the
effective config, the artifact version, and wall time; a sweep's also records
``blas_threads``, the thread count of each OpenBLAS library during its cells
(``{}`` where none was found). Exit codes: 0 on
success, 2 on configuration errors, 3 on experiment failures.

``simlab.SweepConfig`` is the schema of a sweep config: its fields are the
keys (``lambda_task`` is ``lambda.task``, ``sigma2_value`` is
``sigma2.value``), its defaults the defaults, and its checks the only type
and range checks. A value it refuses is a configuration error that names
the key, reported before any replication runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from dckrr import __version__, dnc, rates, simlab
from dckrr.simlab import as_int, as_real, as_tuple_of
from dckrr.spectra import (
    M_CAP,
    M_DEFAULT,
    TruncationError,
    additive,
    check_prop31_ratio,
    check_tail_sum,
    eval_kernel_K,
    gaussian_rkhs,
    periodic_sobolev,
    smoothing_spline,
    smoothing_spline_level,
    spectral_sums,
    thin_plate,
    truncation_level,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXPERIMENT = 3

CSV_HEADER = "N,rho,s,n,lambda,mse_mean,mse_stderr,reject_rate,reject_stderr,reps,dropped"


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    """Locale-independent float with 17 significant digits."""
    return format(float(x), ".17g")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, config: dict, outputs: list[str], seed: int, t0: float,
                    **extra) -> None:
    manifest = {
        "version": __version__,
        "config": config,
        "seed": seed,
        "wall_time_seconds": time.perf_counter() - t0,
        "outputs": {
            os.path.basename(p): {"sha256": _sha256(p)} for p in outputs
        },
        **extra,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


PRESETS = {
    "spline-fig1": {
        "model": "spline1d",
        "c": 1.0,
        "N_list": [512, 1024, 2048, 4096, 8192],
        "rho_list": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        "replications": 50,
        "lambda": {"source": "rates", "task": "estimation"},
    },
    "additive-fig2": {
        "model": "additive2d",
        "c": 1.0,
        "N_list": [512, 1024, 2048, 4096, 8192],
        "rho_list": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        "replications": 50,
        "lambda": {"source": "rates", "task": "estimation"},
    },
}
PAPER_SCALE_REPS = {"spline-fig1": 100, "additive-fig2": 100}


def _load_config(args) -> dict:
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}")
        cfg = json.loads(json.dumps(PRESETS[args.preset]))  # deep copy
        if args.paper_scale:
            cfg["replications"] = PAPER_SCALE_REPS[args.preset]
    elif args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    else:
        raise ConfigError("one of --config or --preset is required")
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    if args.workers is not None:
        cfg["workers"] = args.workers
    return cfg


# The keys a diagnose config may hold, at the top level and in each section.
# ``base_seed`` and ``workers`` are also written by ``--seed`` and ``--workers``.
DIAGNOSE_KEYS = {
    "": ("lambda_grid", "spectrum", "xi", "base_seed", "workers"),
    "spectrum.": ("family", "m", "d", "M", "scale"),
    "xi.": ("N", "s", "lambda", "seed"),
}
# The sections of a sweep config; every other key is a top-level field.
SWEEP_SECTIONS = ("lambda", "sigma2")


def _known_keys(section, prefix: str, keys) -> dict:
    """``section``, checked to be a JSON object holding only ``keys``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} must be a JSON object")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(repr(prefix + k) for k in unknown))
    return section


def _field(section: dict, prefix: str, key: str, kind, default, valid=None, need: str = ""):
    """``kind(section[key])``, or ``default`` when absent, with ``kind`` one of
    ``simlab``'s strict converters; a value ``kind`` rejects, or one for which
    ``valid`` is false, is a config error naming the field."""
    try:
        value = kind(section[key]) if key in section else default
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}{key} {exc}") from exc
    if valid is not None and not valid(value):
        raise ConfigError(f"{prefix}{key} must be {need}, got {section.get(key, value)!r}")
    return value


def _positive(x) -> bool:
    return 0 < x < math.inf


def _sweep_key(field: str) -> str:
    """The config key of a ``SweepConfig`` field: ``lambda_task`` is
    ``lambda.task`` and ``sigma2_value`` is ``sigma2.value``; every other
    field is the top-level key of its own name."""
    section, _, key = field.partition("_")
    return f"{section}.{key}" if section in SWEEP_SECTIONS else field


def _sweep_config(cfg: dict) -> simlab.SweepConfig:
    """The ``SweepConfig`` of a JSON config. Its keys are the dataclass's
    fields; a missing key takes the field's default, and a value the
    dataclass refuses is a config error naming the key."""
    field_of = {_sweep_key(f.name): f.name for f in dataclasses.fields(simlab.SweepConfig)}
    flat = {}
    for key, value in _known_keys(cfg, "", {k.split(".")[0] for k in field_of}).items():
        if key not in SWEEP_SECTIONS:
            flat[field_of[key]] = value
            continue
        inner = [k.split(".")[1] for k in field_of if k.startswith(key + ".")]
        for k, v in _known_keys(value, key + ".", inner).items():
            flat[field_of[f"{key}.{k}"]] = v
    try:
        return simlab.SweepConfig(**flat)
    except simlab.FieldError as exc:
        raise ConfigError(f"{_sweep_key(exc.field)} {exc.problem}") from exc


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    try:
        raw = _load_config(args)
        cfg = _sweep_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = simlab.run_sweep(cfg)
    except (simlab.SweepError, TruncationError) as exc:
        print(f"experiment failure: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for cell in result.cells:
            fh.write(
                ",".join(
                    [
                        str(cell.N),
                        _fmt(cell.rho),
                        str(cell.s),
                        str(cell.n),
                        _fmt(cell.lam),
                        _fmt(cell.mse_mean),
                        _fmt(cell.mse_stderr),
                        _fmt(cell.reject_rate),
                        _fmt(cell.reject_stderr),
                        str(cell.reps),
                        str(cell.dropped),
                    ]
                )
                + "\n"
            )
    _write_manifest(args.out, dataclasses.asdict(cfg), [csv_path], cfg.base_seed, t0,
                    blas_threads=result.blas_threads)
    print(f"wrote {csv_path} ({len(result.cells)} rows)")
    return EXIT_OK


def cmd_rates(args) -> int:
    try:
        rx = rates.prescribe(args.family, args.m, args.d, args.N, args.task)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rho = math.log(rx.s_max) / math.log(args.N)
    print("family,task,m,d,N,lambda,s_max,rho_max,rate")
    print(
        f"{rx.family},{rx.task},{rx.m},{rx.d},{rx.N},"
        f"{_fmt(rx.lam)},{rx.s_max},{_fmt(rho)},{_fmt(rx.rate)}"
    )
    if rx.exponents:
        exps = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(rx.exponents.items()))
        print(f"# exponents: {exps}")
    for msg in rx.warnings:
        print(f"# warning: {msg}")
    return EXIT_OK


DIAGNOSE_FAMILIES = ("spline", "periodic_sobolev", "additive", "gaussian", "gaussian_rkhs",
                     "thin_plate")


def _diag_spectrum(cfg: dict, lam_grid: tuple[float, ...]):
    """The spectrum a diagnose config names, resolved at the finest ``lambda``
    of the grid: ``spline`` is the smoothing spline that ``spline1d`` sweeps
    fit, ``periodic_sobolev`` the periodic family."""
    cfg = _known_keys(cfg, "spectrum.", DIAGNOSE_KEYS["spectrum."])
    fam = cfg.get("family", "spline")
    if fam not in DIAGNOSE_FAMILIES:
        raise ConfigError(f"unknown family {fam!r}")
    at_least_1 = dict(valid=lambda v: v >= 1, need=">= 1")
    m = _field(cfg, "spectrum.", "m", as_int, 2, **at_least_1)
    d = _field(cfg, "spectrum.", "d", as_int, 1, **at_least_1)
    M = _field(cfg, "spectrum.", "M", as_int, None, **at_least_1) if "M" in cfg else None
    scale = _field(cfg, "spectrum.", "scale", as_real, 1.0, _positive, "positive")
    lam = min(lam_grid)
    try:
        if fam == "spline":
            spec = smoothing_spline(m, M or smoothing_spline_level(m, lam))
        elif fam == "periodic_sobolev":
            spec = periodic_sobolev(m, M or truncation_level(m, lam))
        elif fam == "additive":
            spec = additive(m, d, M or truncation_level(m, lam, d))
        elif fam == "thin_plate":
            spec = thin_plate(m, d, M or M_DEFAULT)
        else:
            spec = gaussian_rkhs(d, scale, M or M_CAP)
        spectral_sums(spec, lam)  # a level that resolves the finest lambda resolves all
    except ValueError as exc:  # the family's own limits, TruncationError included
        raise ConfigError(f"spectrum: {exc}") from exc
    return spec


def _basis_sup_sq(spec) -> float | None:
    """``sup phi(x)^2`` over ``[0, 1]^d`` and the family's basis, null space
    included, so that ``K(x, x) <= sup * h_inv``: 4 for the ``W^2`` smoothing
    spline (beam modes are 2 at the ends, and ``3 (2x - 1)^2 <= 3``), 2 for
    the ``sqrt(2)`` sin/cos bases. The Gaussian's Nyström eigenfunctions
    have no uniform bound (``None``)."""
    if spec.family == "smoothing_spline" and spec.m == 2:
        return 4.0
    if spec.family in ("smoothing_spline", "periodic_sobolev", "additive"):
        return 2.0
    return None


def cmd_diagnose(args) -> int:
    t0 = time.perf_counter()
    try:
        raw = _load_config(args) if (args.config or args.preset) else {}
        raw = _known_keys(raw, "", DIAGNOSE_KEYS[""])
        lam_grid = _field(raw, "", "lambda_grid", as_tuple_of(as_real),
                          (1e-2, 1e-3, 1e-4, 1e-5, 1e-6), lambda g: all(map(_positive, g)),
                          "positive")
        seed = _field(raw, "", "base_seed", as_int, 0, lambda v: v >= 0, ">= 0")
        spec = _diag_spectrum(raw.get("spectrum", {}), lam_grid)
        xi = raw.get("xi")
        if xi:
            xi = _known_keys(xi, "xi.", DIAGNOSE_KEYS["xi."])
            N = _field(xi, "xi.", "N", as_int, 1024, lambda v: v >= 1, ">= 1")
            s = _field(xi, "xi.", "s", as_int, 4, lambda v: 1 <= v <= N, f"in 1..{N}")
            xi_lam = _field(xi, "xi.", "lambda", as_real, lam_grid[0], _positive, "positive")
            xi_seed = _field(xi, "xi.", "seed", as_int, 0, lambda v: v >= 0, ">= 0")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report: dict = {
        "family": spec.family,
        "m": spec.m,
        "d": spec.d,
        "M": spec.M,
        "tail_sum_sup": check_tail_sum(spec),
        "prop31_ratios": dict(
            zip(map(_fmt, lam_grid), map(float, check_prop31_ratio(spec, lam_grid)))
        ),
    }
    if spec.has_eigenfunctions:
        lam0 = lam_grid[0]
        grid = (np.arange(256) + 0.5) / 256
        pts = grid.reshape(-1, 1) if spec.d == 1 else np.column_stack([grid] * spec.d)
        kxx = max(eval_kernel_K(spec, lam0, p, p) for p in pts)
        h_inv = spectral_sums(spec, lam0).h_inv
        sup = _basis_sup_sq(spec)
        report["kernel_bound"] = {
            "lambda": lam0,
            "max_K_xx": kxx,
            "h_inv": h_inv,
            "ok": None if sup is None else kxx <= sup * h_inv,
        }
    if xi:
        if not spec.has_eigenfunctions or spec.d > 2:  # designs come from 1-D or 2-D models
            print(
                f"unsupported: xi diagnostic unavailable for {spec.family} with d={spec.d}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        model = "spline1d" if spec.d == 1 else "additive2d"
        data = simlab.generate(model, N, xi_seed, c=0.0)
        part = dnc.partition(data, s, xi_seed)
        xis = dnc.xi_diagnostic(spec, data, part, xi_lam)
        report["xi"] = {
            "N": N,
            "s": s,
            "lambda": xi_lam,
            "max": float(np.max(xis)),
            "median": float(np.median(xis)),
        }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "diagnostics.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, raw, [path], seed, t0)
    print(f"wrote {path}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a JSON config")
    p.add_argument("--preset", help="named preset (spline-fig1, additive-fig2)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--workers", type=int, default=None, help="worker pool width")
    p.add_argument("--seed", type=int, default=None, help="override base seed")
    p.add_argument("--paper-scale", action="store_true", help="full replication counts")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dckrr", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a replicated (N, rho) experiment grid")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rates", help="print tuning-rule prescriptions")
    p.add_argument("--family", required=True, choices=list(rates.FAMILIES))
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--task", default="estimation", choices=list(rates.TASKS))
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("diagnose", help="spectral and empirical-process diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
