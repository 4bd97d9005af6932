"""Command-line front end: ``dckrr sweep|rates|diagnose``.

Configs and manifests are JSON; tabular results are CSV with dot decimal
separators, LF line endings, and 17 significant digits. Every run writes a
``manifest.json`` listing each output file with its SHA-256 hash, the
effective config, the artifact version, and wall time; a sweep's also records
``blas_threads``, the thread count of each OpenBLAS library during its cells
(``{}`` where none was found), and ``machine_threads``, the most threads that
a :func:`~dckrr.dnc.fit_all` or :func:`~dckrr.dnc.predict_bar` of the
process has run one estimate's machines on (1 where none ran them in
parallel). Exit codes: 0 on success, 2 on configuration errors, 3 on
experiment failures.

``simlab.SweepConfig`` is the schema of a sweep config and ``DiagnoseConfig``
of a diagnose config: a dataclass's fields are the keys (``lambda_task`` is
``lambda.task``, ``xi_N`` is ``xi.N``), its defaults the defaults, and its
checks the only type and range checks. A value it refuses is a configuration
error that names the key, reported before any replication or diagnostic runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import warnings

import numpy as np

from dckrr import __version__, dnc, rates, simlab
from dckrr.spectra import (
    FAMILIES,
    TruncationError,
    check_prop31_ratio,
    check_tail_sum,
    eval_kernel_K,
    spectral_sums,
    spectrum_for,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXPERIMENT = 3

# sweep.csv's columns, in order: (header, the CellResult attribute written)
CSV_COLUMNS = (
    ("N", "N"), ("rho", "rho"), ("s", "s"), ("n", "n"), ("lambda", "lam"), ("mse_mean", "mse_mean"),
    ("mse_stderr", "mse_stderr"), ("reject_rate", "reject_rate"),
    ("reject_stderr", "reject_stderr"), ("reps", "reps"), ("dropped", "dropped"),
)


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
    name: {
        "model": model,
        "c": 1.0,
        "N_list": [512, 1024, 2048, 4096, 8192],
        "rho_list": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        "replications": 50,
        "lambda": {"source": "rates", "task": "estimation"},
    }
    for name, model in (("spline-fig1", "spline1d"), ("additive-fig2", "additive2d"))
}
PAPER_SCALE_REPS = {"spline-fig1": 100, "additive-fig2": 100}
XI_BASIS_CAP = 2048  # null_dim + M of the xi diagnostic's dense per-machine Gram: 32 MB


def _load_config(path: str | None, preset: str | None = None, paper_scale: bool = False):
    """The JSON value of the config file ``path``, or the config of ``preset``
    (the parser refuses both at once); ``paper_scale`` applies to a preset only."""
    if paper_scale and not preset:
        raise ConfigError("--paper-scale applies to a --preset only")
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        cfg = dict(PRESETS[preset])
        if paper_scale:
            cfg["replications"] = PAPER_SCALE_REPS[preset]
        return cfg
    if path is None:
        raise ConfigError("one of --config or --preset is required")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read config: {exc}") from exc


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that cannot become the output directory, before
    any work runs: it must be a directory, or not exist below a writable
    directory. Nothing is created; the command makes the directory when it
    writes its outputs."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):  # so a dangling symlink is refused, not walked past
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"--out {path!r}: {head} is not a directory")
    if not os.access(head, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {path!r}: {head} is not writable")


def _known_keys(section, prefix: str, keys) -> dict:
    """``section``, checked to be a JSON object holding only ``keys``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} must be a JSON object")
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(repr(prefix + k) for k in unknown))
    return section


def _config_key(cls, field: str) -> str:
    """The config key of a field of ``cls``: ``<section>_<key>`` is
    ``<section>.<key>`` for each of ``cls.SECTIONS``, and every other field
    is the top-level key of its own name."""
    section, _, key = field.partition("_")
    return f"{section}.{key}" if section in cls.SECTIONS else field


def _config(cls, raw, **overrides):
    """The ``cls`` of a JSON config ``raw``, with each override that is not
    ``None`` in place of its field. The keys are the dataclass's fields; a
    missing key takes the field's default, and a value the dataclass refuses
    is a config error naming the key."""
    field_of = {_config_key(cls, f.name): f.name for f in dataclasses.fields(cls)}
    flat = {}
    for key, value in _known_keys(raw, "", {k.split(".")[0] for k in field_of}).items():
        if key not in cls.SECTIONS:
            flat[field_of[key]] = value
            continue
        inner = [k.split(".")[1] for k in field_of if k.startswith(key + ".")]
        for k, v in _known_keys(value, key + ".", inner).items():
            flat[field_of[f"{key}.{k}"]] = v
    flat.update((name, v) for name, v in overrides.items() if v is not None)
    try:
        return cls(**flat)
    except simlab.FieldError as exc:
        raise ConfigError(f"{_config_key(cls, exc.field)} {exc.problem}") from exc


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    try:
        raw = _load_config(args.config, args.preset, args.paper_scale)
        cfg = _config(simlab.SweepConfig, raw, base_seed=args.seed, workers=args.workers)
        _check_out(args.out)
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
        fh.write(",".join(name for name, _ in CSV_COLUMNS) + "\n")
        for cell in result.cells:
            values = (getattr(cell, attr) for _, attr in CSV_COLUMNS)
            fh.write(",".join(str(v) if isinstance(v, int) else _fmt(v) for v in values) + "\n")
    _write_manifest(args.out, dataclasses.asdict(cfg), [csv_path], cfg.base_seed, t0,
                    blas_threads=result.blas_threads, machine_threads=dnc._machine_threads())
    print(f"wrote {csv_path} ({len(result.cells)} rows)")
    return EXIT_OK


def cmd_rates(args) -> int:
    try:
        with warnings.catch_warnings():
            # each warning is printed once, as a "# warning:" line below
            warnings.simplefilter("ignore", UserWarning)
            rx = rates.prescribe(args.family, args.m, args.d, args.N, args.task)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("family,task,m,d,N,lambda,s_max,rho_max,rate")
    print(
        f"{rx.family},{rx.task},{rx.m},{rx.d},{rx.N},"
        f"{_fmt(rx.lam)},{rx.s_max},{_fmt(rx.rho_max)},{_fmt(rx.rate)}"
    )
    exps = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(rx.exponents.items()))
    print(f"# exponents: {exps}")
    for msg in rx.warnings:
        print(f"# warning: {msg}")
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class DiagnoseConfig:
    """The schema of ``dckrr diagnose`` configs, as ``simlab.SweepConfig`` is
    of sweep configs: a field ``spectrum_<key>`` or ``xi_<key>`` is the key
    ``<key>`` of that JSON object, every other field a top-level key, and the
    defaults here are the only defaults. The ``xi`` diagnostic runs when the
    config holds a non-empty ``xi`` object, and ``xi_seed`` is its one seed.
    ``spectrum_m`` and ``spectrum_scale`` are ``None`` for the family's own
    value, and each is refused for a family that does not read it."""

    SECTIONS = ("spectrum", "xi")  # the JSON objects; not a field

    lambda_grid: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    spectrum_family: str = "spline"
    spectrum_m: int | None = None  # the order, 2 when null; refused for the Gaussian
    spectrum_d: int = 1
    spectrum_M: int | None = None  # the family's level for the finest lambda
    # the Gaussian's exp(-scale |x - y|^2), 1.0 when null; refused for the rest
    spectrum_scale: float | None = None
    xi_N: int = 1024
    xi_s: int = 4
    xi_lambda: float | None = None  # the first lambda of the grid
    xi_seed: int = 0

    def __post_init__(self):
        gaussian = self.spectrum_family in ("gaussian", "gaussian_rkhs")  # reads scale, not m
        simlab.check_fields(self, lambda: (
            ("lambda_grid", min(self.lambda_grid) > 0, "must hold positive values"),
            ("spectrum_family", self.spectrum_family in FAMILIES, f"must be one of {FAMILIES}"),
            ("spectrum_m", self.spectrum_m is None or not gaussian,
             f"must be null for the {self.spectrum_family} family, which has no order"),
            ("spectrum_m", self.spectrum_m is None or self.spectrum_m >= 1, "must be >= 1"),
            ("spectrum_d", self.spectrum_d >= 1, "must be >= 1"),
            ("spectrum_M", self.spectrum_M is None or self.spectrum_M >= 1, "must be >= 1"),
            ("spectrum_scale", self.spectrum_scale is None or gaussian,
             f"must be null for the {self.spectrum_family} family, which has no bandwidth"),
            ("spectrum_scale", self.spectrum_scale is None or self.spectrum_scale > 0,
             "must be positive"),
            ("xi_N", self.xi_N >= 1, "must be >= 1"),
            ("xi_s", 1 <= self.xi_s <= self.xi_N, f"must be in 1..{self.xi_N}"),
            ("xi_lambda", self.xi_lambda is None or self.xi_lambda > 0, "must be positive"),
            ("xi_seed", self.xi_seed >= 0, "must be >= 0"),
        ))

    @property
    def xi_lam(self) -> float:
        return self.lambda_grid[0] if self.xi_lambda is None else self.xi_lambda


def _diagnostics(cfg: DiagnoseConfig, xi: bool) -> dict:
    """The report of ``dckrr diagnose``, with the ``xi`` summary when ``xi``.
    A spectrum the family cannot build, or an ``xi`` diagnostic it does not
    support (no eigenfunctions, ``d > 2``, or a basis past ``XI_BASIS_CAP``),
    is a config error raised before any diagnostic runs. The spectrum is the
    family's at the finest ``lambda`` of the grid."""
    try:
        spec = spectrum_for(cfg.spectrum_family, 2 if cfg.spectrum_m is None else cfg.spectrum_m,
                            cfg.spectrum_d, min(cfg.lambda_grid), cfg.spectrum_M,
                            1.0 if cfg.spectrum_scale is None else cfg.spectrum_scale)
    except ValueError as exc:  # the family's own limits, TruncationError included
        raise ConfigError(f"spectrum: {exc}") from exc
    if xi and (spec.basis is None or spec.d > 2):  # designs come from 1-D or 2-D models
        raise ConfigError(f"unsupported: xi diagnostic unavailable for {spec.family} "
                          f"with d={spec.d}")
    if xi and spec.null_dim + spec.M > XI_BASIS_CAP:
        raise ConfigError(f"xi: {spec.family} at M={spec.M} has null_dim + M = "
                          f"{spec.null_dim + spec.M}, past the cap {XI_BASIS_CAP}")
    report: dict = {
        "family": spec.family,
        "m": spec.m,
        "d": spec.d,
        "M": spec.M,
        "tail_sum_sup": check_tail_sum(spec),
        "prop31_ratios": dict(
            zip(map(_fmt, cfg.lambda_grid), map(float, check_prop31_ratio(spec, cfg.lambda_grid)))
        ),
    }
    if spec.basis is not None:
        lam0 = cfg.lambda_grid[0]
        grid = (np.arange(256) + 0.5) / 256
        pts = np.column_stack([grid] * spec.d)
        kxx = max(eval_kernel_K(spec, lam0, p, p) for p in pts)
        h_inv = spectral_sums(spec, lam0).h_inv
        report["kernel_bound"] = {
            "lambda": lam0,
            "max_K_xx": kxx,
            "h_inv": h_inv,
            "ok": None if spec.sup_sq is None else kxx <= spec.sup_sq * h_inv,
        }
    if xi:
        model = "spline1d" if spec.d == 1 else "additive2d"
        data = simlab.generate(model, cfg.xi_N, cfg.xi_seed, c=0.0)
        part = dnc.partition(data, cfg.xi_s, cfg.xi_seed)
        xis = dnc.xi_diagnostic(spec, data, part, cfg.xi_lam)
        report["xi"] = {
            "N": cfg.xi_N,
            "s": cfg.xi_s,
            "lambda": cfg.xi_lam,
            "max": float(np.max(xis)),
            "median": float(np.median(xis)),
        }
    return report


def cmd_diagnose(args) -> int:
    t0 = time.perf_counter()
    try:
        raw = _load_config(args.config) if args.config else {}
        cfg = _config(DiagnoseConfig, raw)
        _check_out(args.out)
        report = _diagnostics(cfg, xi=bool(raw.get("xi")))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "diagnostics.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, dataclasses.asdict(cfg), [path], cfg.xi_seed, t0)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dckrr", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a replicated (N, rho) experiment grid")
    sweep.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rates", help="print tuning-rule prescriptions")
    p.add_argument("--family", required=True, choices=list(rates.FAMILIES))
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--task", default="estimation", choices=list(rates.TASKS))
    p.set_defaults(func=cmd_rates)

    diagnose = sub.add_parser("diagnose", help="spectral and empirical-process diagnostics")
    diagnose.set_defaults(func=cmd_diagnose)

    source = sweep.add_mutually_exclusive_group()
    for p in (source, diagnose):
        p.add_argument("--config", help="path to a JSON config")
    source.add_argument("--preset", help="named preset (spline-fig1, additive-fig2)")
    for p in (sweep, diagnose):
        p.add_argument("--out", default=".", help="output directory")
    sweep.add_argument("--seed", type=int, default=None, help="override base_seed")
    sweep.add_argument("--paper-scale", action="store_true",
                       help="full replication counts for a --preset")
    sweep.add_argument("--workers", type=int, default=None, help="override workers")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
