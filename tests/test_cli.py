"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dckrr import cli, dnc, rates, simlab
from dckrr.cli import EXIT_CONFIG, EXIT_EXPERIMENT, EXIT_OK, main
from dckrr.solver import SOLVE_PATHS
from dckrr.spectra import FAMILIES, smoothing_spline_level, truncation_level


def _write_config(tmp_path, **overrides):
    cfg = {
        "model": "spline1d",
        "c": 1.0,
        "N_list": [128],
        "rho_list": [0.3],
        "replications": 3,
        "base_seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSweepCommand:
    def test_minimal_run(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 1
        row = rows[0]
        assert row["N"] == "128"
        assert int(row["s"]) == max(1, math.floor(128**0.3 + 0.5))
        assert int(row["n"]) == 128 // int(row["s"])
        assert row["reps"] == "3"
        assert 0.0 <= float(row["reject_rate"]) <= 1.0
        assert float(row["mse_mean"]) > 0

    def test_manifest_hash_matches_output(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["sweep.csv"]["sha256"] == _sha256(out / "sweep.csv")
        assert manifest["seed"] == 7
        assert manifest["config"]["base_seed"] == 7

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        main(["sweep", "--config", cfg, "--out", str(out2)])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_worker_flag_does_not_change_output(self, tmp_path):
        cfg = _write_config(tmp_path, replications=4)
        outs = []
        for w in (1, 2, 8):
            out = tmp_path / f"w{w}"
            assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", str(w)]) == EXIT_OK
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_manifest_records_blas_threads(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == {name: 1 for name in simlab._openblas_libraries()}

    @pytest.mark.parametrize("solve_path, cpus, cap, expected", [
        ("truncated_feature", 3, 4, 1), ("exact_gram", 1, 4, 1), ("exact_gram", 3, 4, 3),
        ("exact_gram", 6, 4, 4),
    ])
    def test_manifest_records_machine_threads(self, tmp_path, monkeypatch, solve_path, cpus, cap,
                                              expected):
        # the threads predict_bar ran machines on: the pool it made, sized by
        # the CPUs up to the cap, or 1 where it ran none in parallel. Every
        # exact_gram cross-gram passes the gate here, and the BLAS is taken to
        # be on one thread, as a sweep sets OpenBLAS, whatever the host's BLAS
        monkeypatch.setattr(dnc, "_POOL", None)
        monkeypatch.setattr(dnc, "_MAX_MACHINE_THREADS", cap)
        monkeypatch.setattr(dnc, "_PARALLEL_MADDS", 0)
        monkeypatch.setattr(dnc, "_cpus", lambda: cpus)
        monkeypatch.setattr(dnc, "_blas_on_one_thread", lambda: True)
        cfg = _write_config(tmp_path, solve_path=solve_path)
        out = tmp_path / "out"
        try:
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        finally:
            if dnc._POOL is not None:
                dnc._POOL.shutdown()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["machine_threads"] == expected

    @pytest.mark.parametrize("cell", [
        {"model": "spline1d", "N_list": [8192], "rho_list": [0.2], "replications": 4,
         "base_seed": 4, "lambda": {"source": "rates", "task": "estimation"}},
        {"model": "additive2d", "N_list": [768], "rho_list": [0.4], "replications": 2,
         "base_seed": 0, "lambda": {"source": "rates", "task": "estimation"},
         "sigma2": {"mode": "plugin", "value": 1.0}, "solve_path": "exact_gram"},
    ], ids=["spline1d-s6", "additive2d-plugin-gram"])
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, cell):
        # Without one BLAS thread in the sweep, these cells' sweep.csv differ
        # in the 17th digit between OPENBLAS_NUM_THREADS=1 and =2 on a
        # multi-core host: X.T @ X and cho_factor round differently.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(cell, c=1.0)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        blobs = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            subprocess.run([sys.executable, "-m", "dckrr.cli", "sweep", "--config", str(cfg),
                            "--out", str(out)], env=env, check=True, timeout=300,
                           stdout=subprocess.DEVNULL)
            blobs.append((out / "sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["sweep", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_invalid_values_are_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, rho_list=[1.5])
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("field, value, model", [
        ("solve_path", "bogus", "spline1d"),
        ("grid_size", "64", "spline1d"),
        ("grid_size", 64.5, "spline1d"),
        ("base_seed", -1, "spline1d"),
        ("workers", 0, "spline1d"),
        ("m", 0, "spline1d"),
        ("m", 0, "additive2d"),
        ("replication", 100, "spline1d"),
        ("lamda", {"source": "rates", "task": "testing"}, "spline1d"),
        ("sigma", {"mode": "known"}, "additive2d"),
        # a lambda.task typo, whatever the source
        ("lambda", {"source": "rates", "task": "test"}, "spline1d"),
        ("lambda", {"source": "explicit", "task": "test", "value": 1e-3}, "spline1d"),
        # out of range: each would fail every replication, not the config
        ("alpha", 1.5, "spline1d"),
        ("c", math.nan, "spline1d"),
        ("c", math.inf, "spline1d"),
        ("c", -math.inf, "additive2d"),
        ("sigma2", {"mode": "known", "value": -1}, "spline1d"),
        # of the wrong type or container, refused rather than cast
        ("replications", 2.5, "spline1d"),
        ("replications", True, "spline1d"),
        ("N_list", [64.9], "spline1d"),
        ("N_list", "64", "spline1d"),
        ("N_list", [], "spline1d"),
        ("rho_list", ["0.3"], "spline1d"),
        ("c", "1", "spline1d"),
        ("base_seed", 1.7, "spline1d"),
        ("m", 2.9, "additive2d"),
        ("lambda", {"source": "explicit", "value": "1e-3"}, "spline1d"),
        # a value a rate-rule lambda would never read
        ("lambda", {"value": 1e-3}, "spline1d"),
    ])
    def test_bad_field_fails_fast_naming_it(self, tmp_path, monkeypatch, capsys, field, value, model):
        def never(cfg):
            raise AssertionError("the experiment ran on an invalid config")

        monkeypatch.setattr(simlab, "run_sweep", never)
        cfg = _write_config(tmp_path, model=model, **{field: value})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and re.search(rf"\b{field}\b", err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, value, key", [
        ("lambda", {"source": "rates", "tsk": "testing"}, "lambda.tsk"),
        ("sigma2", {"mode": "known", "valeu": 1.0}, "sigma2.valeu"),
    ])
    def test_unknown_section_key_fails_fast_naming_it(self, tmp_path, monkeypatch, capsys,
                                                      section, value, key):
        def never(cfg):
            raise AssertionError("the experiment ran on an invalid config")

        monkeypatch.setattr(simlab, "run_sweep", never)
        cfg = _write_config(tmp_path, **{section: value})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_section_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, **{"lambda": "rates"})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "lambda must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("path", [{}, {"solve_path": "exact_gram"}], ids=["default", "exact_gram"])
    def test_plugin_sigma2_runs_on_either_solve_path(self, tmp_path, path):
        cfg = _write_config(tmp_path, sigma2={"mode": "plugin"}, **path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert rows[0]["reps"] == "3"

    def test_experiment_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise simlab.SweepError("synthetic")

        monkeypatch.setattr(simlab, "run_sweep", boom)
        cfg = _write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_EXPERIMENT
        assert "experiment failure" in capsys.readouterr().err

    def test_presets_are_well_formed(self):
        for name, preset in cli.PRESETS.items():
            assert len(preset["N_list"]) == 5
            assert len(preset["rho_list"]) == 8
            assert preset["replications"] == 50
            assert name in cli.PAPER_SCALE_REPS

    def test_unknown_preset(self, tmp_path, capsys):
        assert main(["sweep", "--preset", "nope", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_config_and_preset_are_mutually_exclusive(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, model="additive2d")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--preset", "spline-fig1", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_paper_scale_without_preset_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--paper-scale", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --paper-scale applies to a --preset only\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [["sweep", "--seed", "3"], ["sweep", "--workers", "2"],
                                  ["diagnose"]])
def test_override_of_a_config_that_is_not_an_object_is_config_error(tmp_path, capsys, argv):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"
    assert not out.exists()



@pytest.mark.parametrize("command", ["sweep", "diagnose"])
def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot read config: 'utf-8' codec")
    assert not out.exists()


@pytest.mark.parametrize("command, module, work", [("sweep", simlab, "run_sweep"),
                                                   ("diagnose", cli, "_diagnostics")])
@pytest.mark.parametrize("out, head", [("file", "file"), ("file/sub", "file"),
                                       ("dangling", "dangling"), ("dangling/sub", "dangling")])
def test_out_that_cannot_be_a_directory_fails_before_any_work(tmp_path, monkeypatch, capsys,
                                                              command, module, work, out, head):
    def no_work(*args):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(module, work, no_work)
    (tmp_path / "file").write_text("kept")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")  # a symlink to nothing
    cfg = _write_config(tmp_path) if command == "sweep" else None
    argv = [command, "--out", str(tmp_path / out)] + (["--config", cfg] if cfg else [])
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: --out {str(tmp_path / out)!r}: "
                                       f"{tmp_path / head} is not a directory\n")
    assert (tmp_path / "file").read_text() == "kept"
    assert not os.path.lexists(tmp_path / "nowhere")


# The keys of a sweep config, as the JSON spells them.
SWEEP_KEYS = (
    "model", "c", "N_list", "rho_list", "replications", "alpha",
    "lambda.source", "lambda.task", "lambda.value", "sigma2.mode", "sigma2.value",
    "base_seed", "solve_path", "workers", "m", "grid_size",
)

# A valid value of each key.
VALID = {
    "model": st.sampled_from(simlab.MODELS),
    "c": st.floats(-10.0, 10.0),
    "N_list": st.lists(st.integers(4, 4096), min_size=1, max_size=3),
    "rho_list": st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
    "replications": st.integers(1, 100),
    "alpha": st.floats(0.01, 0.5),
    "lambda.source": st.sampled_from(["rates", "explicit"]),
    "lambda.task": st.sampled_from(rates.TASKS),
    "lambda.value": st.none() | st.floats(1e-9, 1.0),
    "sigma2.mode": st.sampled_from(["known", "plugin"]),
    "sigma2.value": st.floats(0.1, 10.0),
    "base_seed": st.integers(0, 10**6),
    "solve_path": st.sampled_from(SOLVE_PATHS),
    "workers": st.integers(1, 8),
    "m": st.integers(2, 3),
    "grid_size": st.none() | st.integers(2, 512),
}

# What a hand-written config gets wrong: an int where a float belongs (or out
# of range), a non-integral float, a bool, a numeric string, a non-finite
# number, a list, or a string where a list belongs.
MALFORMED = st.one_of(
    st.integers(-5, 5),
    st.floats(-1e3, 1e3).filter(lambda x: not x.is_integer()),
    st.booleans(),
    st.sampled_from(["64", "0.3", "1e-3", "2"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(-2, 64) | st.floats(-1.0, 2.0) | st.booleans() | st.just("8"),
             max_size=2),
    st.text(max_size=3),
)


def _configs(keys, valid):
    """Configs holding any of ``keys``, each with a valid or a malformed
    value half of the time; a key ``section.key`` sits in its section."""

    def value(key):
        return st.booleans().flatmap(lambda ok: valid[key] if ok else MALFORMED)

    sections = {key.split(".")[0] for key in keys if "." in key}
    return st.fixed_dictionaries({}, optional={
        **{section: st.fixed_dictionaries({}, optional={
            key[len(section) + 1:]: value(key) for key in keys if key.startswith(section + ".")
        }) for section in sorted(sections)},
        **{key: value(key) for key in keys if "." not in key},
    })


SWEEP_CONFIGS = _configs(SWEEP_KEYS, VALID)


def _key(field, sections=("lambda", "sigma2")):
    """The config key of a config dataclass field."""
    section, _, key = field.partition("_")
    return f"{section}.{key}" if section in sections else field


def _flat(cfg):
    """``cfg`` with its sections' keys spelled ``section.key``."""
    flat = {}
    for key, value in cfg.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def _has_type(value, declared) -> bool:
    args = typing.get_args(declared)
    if typing.get_origin(declared) is tuple:
        return type(value) is tuple and all(_has_type(v, args[0]) for v in value)
    if args:  # a union with None
        return any(_has_type(value, a) for a in args)
    return type(value) is declared


def _is_given(value, given) -> bool:
    """``value`` is the JSON value ``given``: a list became a tuple, and no
    bool, string or fraction turned into a number."""
    if isinstance(given, list):
        return type(value) is tuple and len(value) == len(given) and all(map(_is_given, value, given))
    return type(given) is not bool and type(value) in (type(given), float) and value == given


def _run(command, cfg, module, name, stub):
    """``main([command, ...])`` on ``cfg`` with ``module.name`` replaced by
    ``stub``: the exit code, stderr, and whether the output directory was
    made."""
    with (tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp,
          contextlib.redirect_stderr(io.StringIO()) as err,
          contextlib.redirect_stdout(io.StringIO())):
        mp.setattr(module, name, stub)
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        code = main([command, "--config", path, "--out", out])
        return code, err.getvalue(), os.path.exists(out)


def _sweep(cfg):
    """``_run`` of ``sweep`` with the experiment replaced by a recorder of
    the configs ``run_sweep`` got."""
    recorded = []

    def record(config):
        recorded.append(config)
        return simlab.ExperimentResult()

    code, err, made = _run("sweep", cfg, simlab, "run_sweep", record)
    return code, err, recorded, made


class TestSweepSchema:
    def test_keys_are_the_config_fields(self):
        fields = {_key(f.name): f for f in dataclasses.fields(simlab.SweepConfig)}
        assert set(fields) == set(SWEEP_KEYS)
        # every key is accepted, and a missing key takes the field's default
        for key, field in fields.items():
            section, _, inner = key.rpartition(".")
            default = list(field.default) if isinstance(field.default, tuple) else field.default
            code, _, recorded, _ = _sweep({section: {inner: default}} if section else {key: default})
            assert (code, recorded) == (EXIT_OK, [simlab.SweepConfig()]), key
        # and nothing else: not a field's own name, nor a section key at the top
        for cfg in ({"lambda_task": "testing"}, {"task": "testing"}, {"lambda": {"mode": "known"}},
                    {"sigma2": {"sigma2_value": 1.0}}):
            code, err, recorded, _ = _sweep(cfg)
            assert (code, recorded) == (EXIT_CONFIG, []) and "unknown config key" in err

    @settings(max_examples=300, deadline=None)
    @given(cfg=SWEEP_CONFIGS)
    def test_config_either_fails_naming_a_key_or_is_taken_as_written(self, cfg):
        code, err, recorded, made = _sweep(cfg)
        if code == EXIT_CONFIG:
            assert recorded == [] and not made
            assert any(err.startswith(f"config error: {key} ") for key in SWEEP_KEYS), err
            return
        assert code == EXIT_OK
        (config,) = recorded
        given = _flat(cfg)
        types = typing.get_type_hints(simlab.SweepConfig)
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            assert _has_type(value, types[field.name]), (field.name, value)
            key = _key(field.name)
            if key in given:
                assert _is_given(value, given[key]), (key, value, given[key])


# The keys of a diagnose config, as the JSON spells them.
DIAGNOSE_CONFIG_KEYS = (
    "lambda_grid", "spectrum.family", "spectrum.m", "spectrum.d", "spectrum.M",
    "spectrum.scale", "xi.N", "xi.s", "xi.lambda", "xi.seed",
)
DIAGNOSE_SECTIONS = ("spectrum", "xi")

DIAGNOSE_VALID = {
    "lambda_grid": st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3),
    "spectrum.family": st.sampled_from(FAMILIES),
    "spectrum.m": st.integers(1, 3),
    "spectrum.d": st.integers(1, 3),
    "spectrum.M": st.none() | st.integers(1, 512),
    "spectrum.scale": st.floats(0.1, 10.0),
    "xi.N": st.integers(1, 4096),
    "xi.s": st.integers(1, 64),
    "xi.lambda": st.none() | st.floats(1e-6, 1.0),
    "xi.seed": st.integers(0, 10**6),
}

DIAGNOSE_CONFIGS = _configs(DIAGNOSE_CONFIG_KEYS, DIAGNOSE_VALID)


def _diagnose(cfg):
    """``_run`` of ``diagnose`` with the diagnostics replaced by a recorder
    of the ``(config, xi)`` they got."""
    recorded = []

    def record(config, xi):
        recorded.append((config, xi))
        return {}

    code, err, made = _run("diagnose", cfg, cli, "_diagnostics", record)
    return code, err, recorded, made


class TestDiagnoseSchema:
    def test_keys_are_the_config_fields(self):
        fields = {_key(f.name, DIAGNOSE_SECTIONS): f
                  for f in dataclasses.fields(cli.DiagnoseConfig)}
        assert set(fields) == set(DIAGNOSE_CONFIG_KEYS)
        # every key is accepted, and a missing key takes the field's default;
        # any key of the xi object turns the xi diagnostic on
        for key, field in fields.items():
            section, _, inner = key.rpartition(".")
            default = list(field.default) if isinstance(field.default, tuple) else field.default
            code, _, recorded, _ = _diagnose({section: {inner: default}} if section else
                                             {key: default})
            assert (code, recorded) == (EXIT_OK, [(cli.DiagnoseConfig(), section == "xi")]), key
        # and nothing else: not a field's own name, a section key at the top or
        # in the other section, nor the sweep's workers and base_seed
        for cfg in ({"spectrum_m": 2}, {"m": 2}, {"xi": {"xi_N": 64}}, {"spectrum": {"seed": 0}},
                    {"xi": {"family": "spline"}}, {"workers": 1}, {"base_seed": 0}):
            code, err, recorded, _ = _diagnose(cfg)
            assert (code, recorded) == (EXIT_CONFIG, []) and "unknown config key" in err

    @settings(max_examples=300, deadline=None)
    @given(cfg=DIAGNOSE_CONFIGS)
    def test_config_either_fails_naming_a_key_or_is_taken_as_written(self, cfg):
        code, err, recorded, made = _diagnose(cfg)
        if code == EXIT_CONFIG:
            assert recorded == [] and not made
            assert any(err.startswith(f"config error: {key} ") for key in DIAGNOSE_CONFIG_KEYS), err
            return
        assert code == EXIT_OK
        ((config, xi),) = recorded
        assert xi == bool(cfg.get("xi"))
        given = _flat(cfg)
        types = typing.get_type_hints(cli.DiagnoseConfig)
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            assert _has_type(value, types[field.name]), (field.name, value)
            key = _key(field.name, DIAGNOSE_SECTIONS)
            if key in given:
                assert _is_given(value, given[key]), (key, value, given[key])


class TestRatesCommand:
    def test_spline_example_row(self, capsys):
        assert main(["rates", "--family", "spline", "--N", "4096", "--task", "estimation"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "family,task,m,d,N,lambda,s_max,rho_max,rate"
        fields = out[1].split(",")
        assert fields[0] == "spline" and fields[4] == "4096"
        assert int(fields[6]) == 93
        assert float(fields[7]) == pytest.approx(math.log(93) / math.log(4096), rel=1e-12)

    def test_exponent_comment_printed(self, capsys):
        main(["rates", "--family", "spline", "--N", "4096", "--task", "testing"])
        out = capsys.readouterr().out
        assert "# exponents:" in out

    def test_each_warning_is_printed_once(self, capsys):
        # the additive dimension bound is broken: the warning is a "# warning:"
        # line on stdout, and neither a UserWarning nor a stderr line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["rates", "--family", "additive", "--m", "2", "--d", "50",
                         "--N", "64", "--task", "testing"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK and err == ""
        assert [w for w in caught if issubclass(w.category, UserWarning)] == []
        assert sum(line.startswith("# warning:") for line in out.splitlines()) == 1

    def test_invalid_parameters_exit_config(self, capsys):
        assert main(["rates", "--family", "thin_plate", "--m", "1", "--d", "2", "--N", "1024"]) == EXIT_CONFIG

    def test_matches_library(self, capsys):
        main(["rates", "--family", "gaussian", "--d", "2", "--N", "8192", "--task", "testing"])
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        rx = rates.prescribe("gaussian", 2, 2, 8192, "testing")
        assert float(fields[5]) == pytest.approx(rx.lam, rel=1e-15)
        assert int(fields[6]) == rx.s_max


class TestDiagnoseCommand:
    def test_default_report(self, tmp_path):
        out = tmp_path / "d"
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({"lambda_grid": [1e-2, 1e-3, 1e-4]}))
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "diagnostics.json").read_text())
        # the default "spline" is the smoothing spline that spline1d sweeps fit
        assert report["family"] == "smoothing_spline"
        assert report["M"] == smoothing_spline_level(2, 1e-4)
        assert 0 < report["tail_sum_sup"] < 1.2
        ratios = list(report["prop31_ratios"].values())
        assert all(0.2 <= r <= 1.0 for r in ratios)
        # the W^2 null space and beam modes reach 4 at the ends of [0, 1], so
        # K(x, x) is held to 4 h_inv, not the periodic family's 2 h_inv
        assert report["kernel_bound"]["ok"] is True
        assert report["kernel_bound"]["max_K_xx"] > 2.0 * report["kernel_bound"]["h_inv"]
        assert report["kernel_bound"]["max_K_xx"] < 4.0 * report["kernel_bound"]["h_inv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "diagnostics.json" in manifest["outputs"]

    def test_gaussian_kernel_bound_is_not_judged(self, tmp_path):
        # the Gaussian's Nystrom eigenfunctions have no uniform bound
        out = tmp_path / "d"
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({"lambda_grid": [1e-2], "spectrum": {"family": "gaussian"}}))
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        bound = json.loads((out / "diagnostics.json").read_text())["kernel_bound"]
        assert bound["ok"] is None and bound["max_K_xx"] > 0

    def test_periodic_sobolev_by_name(self, tmp_path):
        out = tmp_path / "d"
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({"lambda_grid": [1e-2, 1e-3, 1e-4],
                                   "spectrum": {"family": "periodic_sobolev"}}))
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["family"] == "periodic_sobolev"
        assert report["M"] == truncation_level(2, 1e-4)
        assert 0 < report["tail_sum_sup"] < 1.2
        assert all(0.2 <= r <= 1.0 for r in report["prop31_ratios"].values())
        assert report["kernel_bound"]["ok"] is True

    def test_xi_summary(self, tmp_path):
        out = tmp_path / "d"
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({
            "lambda_grid": [1e-2],
            "xi": {"N": 256, "s": 2, "lambda": 1e-2, "seed": 0},
        }))
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["xi"]["max"] >= report["xi"]["median"] >= 0

    def test_xi_rejected_for_thin_plate(self, tmp_path, capsys):
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({
            "spectrum": {"family": "thin_plate", "m": 2, "d": 2, "M": 512},
            "lambda_grid": [1e-2],
            "xi": {"N": 64, "s": 2},
        }))
        assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "unsupported" in capsys.readouterr().err

    def test_xi_refused_past_its_basis_cap(self, tmp_path, capsys, monkeypatch):
        # the m = 1 spline needs M = 4096 at lambda 0.3: a 4097 x 4097 Gram
        # (134 MB) per machine, refused before any diagnostic runs
        def never(*args):
            raise AssertionError("xi_diagnostic ran")

        monkeypatch.setattr(cli.dnc, "xi_diagnostic", never)
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({
            "spectrum": {"family": "spline", "m": 1},
            "lambda_grid": [0.3],
            "xi": {"N": 64, "s": 2},
        }))
        out = tmp_path / "d"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "xi" in err and "smoothing_spline" in err and "M=4096" in err
        assert str(cli.XI_BASIS_CAP) in err and not out.exists()

    def test_unknown_family_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "diag.json"
        cfg.write_text(json.dumps({"spectrum": {"family": "bogus"}}))
        assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("cfg, field", [
        ({"spectrum": {"m": "two"}}, "spectrum.m"),
        ({"spectrum": {"scale": "wide", "family": "gaussian"}}, "spectrum.scale"),
        ({"spectrum": {"famly": "gaussian"}}, "spectrum.famly"),
        ({"lambda_grd": [1e-3]}, "lambda_grd"),
        ({"lambda_grid": ["small"]}, "lambda_grid"),
        ({"xi": {"N": "many"}}, "xi.N"),
        ({"xi": {"n": 64}}, "xi.n"),
        ({"xi": {"N": 64, "s": 100}}, "xi.s"),
        ({"spectrum": {"m": 0}}, "spectrum.m"),
        ({"spectrum": {"family": "spline", "m": 3}}, "m=3"),
        ({"spectrum": {"M": 0}}, "spectrum.M"),
        ({"spectrum": {"M": 4}}, "M=4"),
        ({"spectrum": {"family": "gaussian", "scale": -1.0}}, "spectrum.scale"),
        ({"lambda_grid": []}, "lambda_grid"),
        ({"lambda_grid": [1e-3, 0.0]}, "lambda_grid"),
        ({"xi": {"lambda": 0.0}}, "xi.lambda"),
        ({"xi": {"seed": -1}}, "xi.seed"),
        ({"base_seed": "x"}, "base_seed"),
        ({"spectrum": {"m": 2.5}}, "spectrum.m"),
        ({"xi": {"N": 256.9}}, "xi.N"),
        ({"spectrum": {"m": True}}, "spectrum.m"),
        ({"lambda_grid": "123"}, "lambda_grid"),
        ({"xi": {"lambda": math.nan}}, "xi.lambda"),
        ({"workers": 2}, "'workers'"),
        ({"spectrum": {"family": "thin_plate", "M": 16385}}, "spectrum: M=16385 exceeds cap"),
        ({"spectrum": {"family": "spline", "d": 2}}, "spectrum: d must be 1 for the "
         "one-dimensional spline family, got d=2"),
        ({"spectrum": {"family": "periodic_sobolev", "d": 2}}, "spectrum: d must be 1 for the "
         "one-dimensional periodic_sobolev family, got d=2"),
        # a field the family does not read
        ({"spectrum": {"family": "gaussian", "m": 5}},
         "spectrum.m must be null for the gaussian family"),
        ({"spectrum": {"family": "gaussian_rkhs", "m": 2}}, "spectrum.m must be null"),
        *(({"spectrum": {"family": family, "scale": 3.0}},
           f"spectrum.scale must be null for the {family} family")
          for family in FAMILIES if family not in ("gaussian", "gaussian_rkhs")),
    ], ids=["m-two", "scale-wide", "famly", "lambda_grd", "lambda_grid-str",
            "xi.N-many", "xi.n", "xi.s-above-N", "m-0", "spline-m-3", "M-0", "M-too-coarse",
            "scale-negative", "lambda_grid-empty", "lambda_grid-0", "xi.lambda-0",
            "xi.seed-negative", "base_seed-str", "m-2.5", "xi.N-256.9", "m-true",
            "lambda_grid-string", "xi.lambda-nan", "workers-key", "thin_plate-M-above-cap",
            "spline-d-2", "periodic_sobolev-d-2", "gaussian-m", "gaussian_rkhs-m",
            *(f"{family}-scale" for family in FAMILIES
              if family not in ("gaussian", "gaussian_rkhs"))])
    def test_bad_field_fails_fast_naming_it(self, tmp_path, capsys, cfg, field):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["diagnose", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("spectrum,key,value", [
        ({"family": "spline"}, "m", 2),
        ({"family": "additive", "d": 2}, "m", 2),
        ({"family": "gaussian"}, "scale", 1.0),
    ], ids=["spline-m", "additive-m", "gaussian-scale"])
    def test_a_null_field_is_the_familys_own_value(self, tmp_path, spectrum, key, value):
        reports = []
        for given in ({}, {key: None}, {key: value}):
            path = tmp_path / "diag.json"
            path.write_text(json.dumps({"spectrum": {**spectrum, **given}, "lambda_grid": [1e-2]}))
            out = tmp_path / f"out{len(reports)}"
            assert main(["diagnose", "--config", str(path), "--out", str(out)]) == EXIT_OK
            reports.append((out / "diagnostics.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_manifest_seed_is_the_xi_seed(self, tmp_path):
        # xi.seed is the one seed a diagnose run draws from
        cfg = tmp_path / "diag.json"
        for xi, seed in (({}, 0), ({"xi": {"N": 64, "s": 2, "seed": 3}}, 3)):
            cfg.write_text(json.dumps({"lambda_grid": [1e-2], **xi}))
            out = tmp_path / f"d{seed}"
            assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed

    def test_help_lists_only_the_flags_it_reads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--help"])
        assert exc.value.code == EXIT_OK
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
            "--help", "--config", "--out"}

    @pytest.mark.parametrize("flag", [["--preset", "spline-fig1"], ["--paper-scale"],
                                      ["--workers", "2"], ["--seed", "3"]], ids=lambda f: f[0])
    def test_sweep_only_flags_are_refused(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "--out", str(tmp_path / "d"), *flag])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_gaussian_xi_in_two_dimensions_not_three(self, tmp_path, capsys):
        # the Gaussian has eigenfunctions in every dimension, but the xi
        # designs come from the 1-D and 2-D models only
        cfg = tmp_path / "diag.json"
        for d, code in ((2, EXIT_OK), (3, EXIT_CONFIG)):
            cfg.write_text(json.dumps({
                "spectrum": {"family": "gaussian", "d": d},
                "lambda_grid": [1e-2, 1e-3],
                "xi": {"N": 256, "s": 2, "lambda": 1e-2},
            }))
            assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "d")]) == code
        report = json.loads((tmp_path / "d" / "diagnostics.json").read_text())
        assert report["family"] == "gaussian_rkhs" and report["d"] == 2
        assert report["xi"]["max"] >= report["xi"]["median"] >= 0
        assert "unsupported" in capsys.readouterr().err
