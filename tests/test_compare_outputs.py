"""The byte gate, ``scripts/compare_outputs.py``, counts a config that both
trees refuse alike as unchanged, so a config that ``dckrr`` no longer accepts
would stop covering anything unnoticed: each of its ``sweep`` and ``diagnose``
configs must pass its command's schema."""

import importlib.util
import pathlib
import sys

from dckrr import cli, simlab

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
SCHEMAS = {"sweep": simlab.SweepConfig, "diagnose": cli.DiagnoseConfig}


def _cases() -> dict:
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cases()


def test_every_sweep_and_diagnose_config_is_accepted():
    cases = _cases()
    checked = {name: case for name, case in cases.items() if case[0] in SCHEMAS}
    assert {command for command, _ in checked.values()} == set(SCHEMAS)
    refused = []
    for name, (command, config) in checked.items():
        try:
            cli._config(SCHEMAS[command], config)
        except cli.ConfigError as exc:
            refused.append(f"{name}: {exc}")
    assert refused == []


def test_listing_the_configs_leaves_the_interpreter_as_it_was():
    # perfbench/workloads.py is loaded by its path: no sys.path entry, no
    # module left under any name, bytecode writing as it was, and no new
    # bytecode under perfbench/
    cache = SCRIPT.parents[1] / "perfbench" / "__pycache__"
    path, modules, bytecode = list(sys.path), set(sys.modules), sys.dont_write_bytecode
    cached = set(cache.glob("*"))
    _cases()
    assert (sys.path, sys.dont_write_bytecode) == (path, bytecode)
    assert [name for name in set(sys.modules) - modules if "workloads" in name] == []
    assert set(cache.glob("*")) == cached
