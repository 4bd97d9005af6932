"""The per-layer benchmark (``perfbench/``) reads its metrics by function
name, so every name its tracer expects must stay a public function of its
``dckrr`` module: a renamed function would silently read as zero time. Its
rounds call ``dckrr`` as a user would, so a round of each kind must still
run without error."""

import importlib
import importlib.util
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    # the tracer imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_public_function(name: str) -> bool:
    layer, attr = name.split(".")
    module = importlib.import_module(f"dckrr.{layer}")
    obj = getattr(module, attr, None)
    return (not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__)


def test_traced_names_are_public_functions_of_their_modules():
    tracer = _load_tracer()
    assert tracer.EXPECTED
    missing = [name for name in tracer.EXPECTED if not _is_public_function(name)]
    assert missing == []


def _load_child(monkeypatch):
    # child.py imports its sibling ``workloads`` by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("child")


def test_gaussian_round_runs_without_error(monkeypatch, tmp_path):
    child = _load_child(monkeypatch)
    _, info = child.GaussianRounds("gaussian-norm", 0, str(tmp_path)).run(0)
    assert len(info["reps"]) == 2
    assert [rep for rep in info["reps"] if "error" in rep] == []


def test_sweep_round_exits_zero(monkeypatch, tmp_path):
    child = _load_child(monkeypatch)
    _, info = child.SweepRounds("additive-gram-plugin", 0, str(tmp_path)).run(0)
    assert info["code"] == 0
    assert (tmp_path / "round_0000" / "sweep.csv").exists()
