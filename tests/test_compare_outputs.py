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


def _cases(monkeypatch) -> dict:
    # cases() turns bytecode writing off and puts perfbench/ on sys.path;
    # monkeypatch puts both back afterwards
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cases()


def test_every_sweep_and_diagnose_config_is_accepted(monkeypatch):
    cases = _cases(monkeypatch)
    checked = {name: case for name, case in cases.items() if case[0] in SCHEMAS}
    assert {command for command, _ in checked.values()} == set(SCHEMAS)
    refused = []
    for name, (command, config) in checked.items():
        try:
            cli._config(SCHEMAS[command], config)
        except cli.ConfigError as exc:
            refused.append(f"{name}: {exc}")
    assert refused == []
