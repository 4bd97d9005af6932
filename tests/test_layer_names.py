"""The per-layer benchmark (``perfbench/``) reads its metrics by function
name, so every name its tracer expects must stay a public function of its
``dckrr`` module: a renamed function would silently read as zero time."""

import importlib
import importlib.util
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
