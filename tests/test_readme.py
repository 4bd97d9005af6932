"""The README's examples run as written, so the docs cannot drift from the code."""

import contextlib
import io
import json
import pathlib
import re

from dckrr import cli, simlab, spectra

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block that follows the line ``after``."""
    match = re.search(rf"^{re.escape(after)}$.*?^```{lang}\n(.*?)^```$", README, re.M | re.S)
    assert match, f"no {lang} block after {after!r} in README.md"
    return match.group(1)


def test_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("## Quick start", "python"), "README.md", "exec"), {})
    z, reject = out.getvalue().split()
    assert float(z) > 1.96 and reject == "True"  # the example's signal is detected


def test_sweep_config_example_is_a_valid_config():
    raw = json.loads(_block("A sweep config looks like:", "json"))
    cfg = cli._config(simlab.SweepConfig, raw)
    assert (cfg.model, cfg.N_list, cfg.lambda_task, cfg.sigma2_mode) == (
        raw["model"], tuple(raw["N_list"]), raw["lambda"]["task"], raw["sigma2"]["mode"])


def test_diagnose_family_row_lists_the_families():
    row = re.search(r"^\| `spectrum\.family` \|(.*)\|$", README, re.M)
    assert row, "no spectrum.family row in README.md"
    allowed = row.group(1).split("|")[-1]
    assert tuple(re.findall(r"`(\w+)`", allowed)) == spectra.FAMILIES
