"""Check that the working tree writes the same outputs as a git ref.

    python3 scripts/compare_outputs.py <git-ref>

Runs ``dckrr.cli.main`` on a fixed list of ``sweep``, ``diagnose`` and
``rates`` configs, once with the ``src`` of ``<ref>`` and once with the
working tree's, each in a fresh interpreter. For every config the two runs
must agree on the exit code, on the warnings raised (a sweep warns of each
cell's failure count, ``rates`` of a bound it breaks), on stdout (with the
output directory's path masked) and stderr, and byte for byte on
``sweep.csv`` or ``diagnostics.json``. The configs that differ are printed,
with the stdout and stderr lines that differ; the exit code is 1 if any
do, 0 if none does, and 2 if ``<ref>`` cannot be checked out.

The list: the 18 sweep configs of the benchmark (``perfbench/workloads.py``,
3 workloads x seeds 0..2 x rounds 0..1); plug-in ``sigma2`` cells of both
models and an explicit-``lambda`` ``spline1d`` pair, each on both solve
paths; an ``additive2d`` cell on a 20 x 20 grid; two sweeps whose
replications run on 2 threads (a ``spline1d`` pair of cells, and an
``exact_gram`` plug-in ``additive2d`` cell); two ``exact_gram`` cells whose
machines' grid products are large enough that ``predict_bar`` runs them on
several threads (``spline1d`` at ``N = 4096, rho = 0.75`` with an explicit
``lambda`` of 3.95e-7, 512 machines of 8 points on a 512-point grid, and
plug-in ``additive2d`` at ``N = 2048, rho = 0.6``, 97 machines of 21 points
on the 64 x 64 grid); three ``spline1d`` cells whose blocks hold one machine
(``n > 256``), so that ``fit_all`` runs them on several threads on one
worker (``N = 16384, rho = 0.2``, 7 machines of 2340 points, and a plug-in
``exact_gram`` cell at ``N = 4096, rho = 0.2``, 5 machines of 819 points),
and the first on 2 workers, which fit the machines in turn; two
``truncated_feature`` ``spline1d`` cells whose blocks fit their machines as
stacks (``N = 4096, rho = 0.7``, 338 machines of 12 points, whose last block
is ragged, and ``N = 4096, rho = 0.75`` with the explicit ``lambda`` of
3.95e-7, ``M = 340``, whose normal matrices pass the stack bound); ``diagnose``
with no config,
with each family by name (with the ``xi`` diagnostic where the family has
eigenfunctions), with the thin plate at ``d = 2, M = 2048``, with the
additive family at ``d = 2`` on an ``xi`` partition that drops rows (``s``
does not divide ``N``), with the spline at ``m = 1`` (its cosine basis;
no ``xi``, whose per-machine ``(M+1)^2`` Gram is past ``diagnose``'s cap at
the levels that family needs), with the Gaussian at ``d = 2, M = 32`` (its
tensor pairs pruned to ``M``), and with the additive family and the Gaussian
at ``d = 3`` (their bases in three coordinates, reached by the kernel
bound; no ``xi``, which takes ``d <= 2``); and ``rates`` for each family of
``rates.FAMILIES`` and both tasks at a few ``(m, d, N)``, among them an
additive ``d`` past its dimension bound, the thin plate's nonpositive
testing exponent, and a refused ``m``.

``<ref>`` is extracted with ``git archive`` into a temporary directory, so
the repository's ``.git`` is left as it was.
"""

from __future__ import annotations

import contextlib
import difflib
import filecmp
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = ("sweep.csv", "diagnostics.json")
SOLVE_PATHS = ("exact_gram", "truncated_feature")
XI = {"N": 512, "s": 4}
XI_DROPPING = {"N": 515, "s": 4}  # 3 rows left out of the machines' gather
# each family of spectra.FAMILIES, with the fields that read it in two
# dimensions or at another bandwidth; all but the thin plate have the
# eigenfunctions that the xi diagnostic needs
FAMILIES = {
    "spline": {},
    "periodic_sobolev": {},
    "additive": {"d": 2},
    "gaussian": {"d": 2},
    "gaussian_rkhs": {"scale": 2.0},
    "thin_plate": {},
}
# each family of rates.FAMILIES, with the (m, d, N) it is prescribed at
RATES = {
    "spline": [(2, 1, 4096), (3, 1, 1000)],
    "additive": [(2, 2, 4096), (3, 2, 1000), (2, 50, 64)],
    "gaussian": [(0, 1, 64), (0, 2, 1000), (0, 3, 8192)],
    "thin_plate": [(2, 2, 4096), (3, 2, 1000), (1, 2, 1024)],
}


def _workloads():
    """``perfbench/workloads.py``, loaded by its path under a private name:
    nothing is added to ``sys.path`` or ``sys.modules``, and no bytecode is
    written under ``perfbench/``."""
    spec = importlib.util.spec_from_file_location(
        "_compare_outputs_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    return module


def cases() -> dict[str, tuple[str, dict]]:
    """``name -> (command, config)`` of every config compared, in order."""
    wl = _workloads()
    out = {}
    for workload in wl.SWEEP_FIELDS:
        for seed in range(3):
            for r in range(2):
                fields = wl.sweep_fields(workload, seed, r)
                out[f"{workload}-seed{seed}-round{r}"] = ("sweep", wl.cli_config(fields))
    cell = {"N_list": [1024], "replications": 5}
    for path in SOLVE_PATHS:
        for model, rhos in (("spline1d", [0.2, 0.75]), ("additive2d", [0.3, 0.6])):
            out[f"{model}-plugin-{path}"] = ("sweep", dict(
                cell, model=model, rho_list=rhos, sigma2={"mode": "plugin"}, solve_path=path))
        out[f"spline1d-explicit-lambda-{path}"] = ("sweep", dict(
            cell, rho_list=[0.4, 0.75], solve_path=path,
            **{"lambda": {"source": "explicit", "value": 3e-6}}))
    out["additive2d-grid20"] = ("sweep", dict(cell, model="additive2d", rho_list=[0.3], grid_size=20))
    out["spline1d-workers2"] = ("sweep", dict(
        cell, rho_list=[0.2, 0.75], replications=6, workers=2))
    out["additive2d-plugin-exact_gram-workers2"] = ("sweep", dict(
        cell, model="additive2d", rho_list=[0.3], replications=4, workers=2,
        sigma2={"mode": "plugin"}, solve_path="exact_gram"))
    # exact_gram cells whose per-machine cross-gram (len(grid) * M * n) is
    # past the gate from which predict_bar runs machines on several threads
    out["spline1d-N4096-rho0.75-explicit-lambda-exact_gram"] = ("sweep", dict(
        N_list=[4096], rho_list=[0.75], replications=2, solve_path="exact_gram",
        **{"lambda": {"source": "explicit", "value": 3.95e-7}}))
    out["additive2d-N2048-rho0.6-plugin-exact_gram"] = ("sweep", dict(
        N_list=[2048], model="additive2d", rho_list=[0.6], replications=2,
        sigma2={"mode": "plugin"}, solve_path="exact_gram"))
    # cells of one machine a block (n > 256), an odd count of blocks, whose
    # fits fit_all runs on several threads on one worker, and in turn on two
    wide = dict(N_list=[16384], rho_list=[0.2], replications=2)
    out["spline1d-N16384-rho0.2"] = ("sweep", wide)
    out["spline1d-N16384-rho0.2-workers2"] = ("sweep", dict(wide, replications=4, workers=2))
    out["spline1d-N4096-rho0.2-plugin-exact_gram"] = ("sweep", dict(
        N_list=[4096], rho_list=[0.2], replications=2, sigma2={"mode": "plugin"},
        solve_path="exact_gram"))
    # truncated_feature blocks whose machines fit as stacks: a ragged last
    # block, and normal matrices past the stack bound (one machine a stack)
    out["spline1d-N4096-rho0.7"] = ("sweep", dict(
        N_list=[4096], rho_list=[0.7], replications=2, solve_path="truncated_feature"))
    out["spline1d-N4096-rho0.75-explicit-lambda-truncated_feature"] = ("sweep", dict(
        N_list=[4096], rho_list=[0.75], replications=2, solve_path="truncated_feature",
        **{"lambda": {"source": "explicit", "value": 3.95e-7}}))
    out["diagnose-default"] = ("diagnose", {})
    for family, extra in FAMILIES.items():
        config = {"spectrum": {"family": family, **extra}}
        out[f"diagnose-{family}"] = ("diagnose", config if family == "thin_plate" else dict(config, xi=XI))
    out["diagnose-thin_plate-d2-M2048"] = (
        "diagnose", {"spectrum": {"family": "thin_plate", "d": 2, "M": 2048}})
    out["diagnose-additive-d2-xi-N515-s4"] = (
        "diagnose", {"spectrum": {"family": "additive", "d": 2}, "xi": XI_DROPPING})
    out["diagnose-spline-m1"] = (
        "diagnose", {"spectrum": {"family": "spline", "m": 1}, "lambda_grid": [0.3, 0.1]})
    out["diagnose-gaussian-d2-M32"] = (
        "diagnose", {"spectrum": {"family": "gaussian", "d": 2, "M": 32},
                     "lambda_grid": [0.01, 0.001]})
    for family in ("additive", "gaussian"):
        out[f"diagnose-{family}-d3"] = (
            "diagnose", {"spectrum": {"family": family, "d": 3}, "lambda_grid": [0.01, 0.001]})
    for family, points in RATES.items():
        for m, d, N in points:
            for task in ("estimation", "testing"):
                out[f"rates-{family}-m{m}-d{d}-N{N}-{task}"] = (
                    "rates", {"family": family, "m": m, "d": d, "N": N, "task": task})
    return out


def run_cases(src: str, cases_path: str, out: str) -> None:
    """Run every case of ``cases_path`` with the ``dckrr`` of ``src``, each
    in its own directory under ``out``, and write each one's exit code,
    warnings, stdout and stderr to ``out/results.json``. Runs in a fresh
    interpreter, as only one ``dckrr`` can be imported in a process."""
    sys.path.insert(0, src)
    from dckrr import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"imported dckrr from {cli.__file__}, not from {src}")
    with open(cases_path) as fh:
        todo = json.load(fh)
    results = {}
    for name, (command, config) in todo.items():
        case_dir = os.path.join(out, name)
        os.makedirs(case_dir)
        if command == "rates":
            argv = [command] + [f"--{key}={value}" for key, value in config.items()]
        else:
            config_path = os.path.join(case_dir, "config.json")
            with open(config_path, "w") as fh:
                json.dump(config, fh)
            argv = [command, "--config", config_path, "--out", case_dir]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main(argv)
        results[name] = {"code": code, "warnings": [str(w.message) for w in caught],
                         "stdout": stdout.getvalue().replace(case_dir, "<out>"),
                         "stderr": stderr.getvalue()}
    with open(os.path.join(out, "results.json"), "w") as fh:
        json.dump(results, fh)


def _run_tree(src: str, cases_path: str, out: str) -> dict:
    os.makedirs(out)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--run", src, cases_path, out],
                   check=True)
    with open(os.path.join(out, "results.json")) as fh:
        return json.load(fh)


def _differences(name: str, before: dict, after: dict, dirs: tuple[str, str]) -> list[str]:
    """What differs between the two runs of case ``name``."""
    found = [key for key in ("code", "warnings", "stdout", "stderr") if before[key] != after[key]]
    for output in OUTPUTS:
        paths = [os.path.join(d, name, output) for d in dirs]
        exists = [os.path.exists(p) for p in paths]
        if exists[0] != exists[1] or (all(exists) and not filecmp.cmp(*paths, shallow=False)):
            found.append(output)
    return found


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--run":
        run_cases(*argv[1:])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    ref = argv[0]
    todo = cases()
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "ref")
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                                 capture_output=True)
        if archive.returncode:
            print(f"cannot check out {ref!r}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        cases_path = os.path.join(tmp, "cases.json")
        with open(cases_path, "w") as fh:
            json.dump(todo, fh)
        dirs = (os.path.join(tmp, "out-ref"), os.path.join(tmp, "out-tree"))
        before = _run_tree(os.path.join(tree, "src"), cases_path, dirs[0])
        after = _run_tree(os.path.join(ROOT, "src"), cases_path, dirs[1])
        differing = 0
        for name in todo:
            found = _differences(name, before[name], after[name], dirs)
            if found:
                differing += 1
                print(f"differs: {name}: {', '.join(found)}")
                for key in ("stdout", "stderr"):
                    for line in difflib.ndiff(before[name][key].splitlines(),
                                              after[name][key].splitlines()):
                        if line[0] in "-+":
                            print(f"  {key} {line}")
    codes = sorted({str(r["code"]) for r in after.values()})
    print(f"{differing} of {len(todo)} configs differ from {ref} "
          f"(exit codes: {', '.join(codes)})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
