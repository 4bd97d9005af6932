"""Spans around the calls into each ``dckrr`` module, made from outside it.

:meth:`Tracer.install` wraps every public function of the layers in every
module namespace that binds it (``dckrr.dnc.krr_fit`` and
``dckrr.solver.krr_fit`` get the same wrapper), so calls between modules and
within a module are both seen. A span is ``(id, name, start, end, parent)``;
spans are kept in memory and written out by :meth:`Tracer.write`. Self time
is a span's duration minus the durations of its direct children.

While :attr:`Tracer.capture` is true, the wrapper also keeps the arguments
and results of :data:`CAPTURED` calls, which the correctness checks read.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("spectra", "solver", "dnc", "inference", "rates", "simlab", "cli")

# Names the per-layer metrics are read from; any not found is reported.
EXPECTED = (
    "cli.cmd_sweep", "simlab.run_sweep", "simlab.generate", "simlab.mse_of_estimate",
    "dnc.partition", "dnc.fit_all", "dnc.predict_bar",
    "solver.krr_fit", "solver.predict", "solver.smoother_trace",
    "spectra.feature_matrix", "spectra.null_basis", "spectra.gram_R",
    "spectra.smoothing_spline_level", "spectra.truncation_level",
    "inference.norm_breakdown", "inference.test_statistic", "inference.estimate_sigma2",
    "rates.prescribe",
)

CAPTURED = (
    "simlab.generate", "dnc.partition", "dnc.fit_all", "dnc.predict_bar",
    "simlab.mse_of_estimate", "inference.norm_breakdown", "inference.test_statistic",
    "inference.estimate_sigma2",
)


def _system_rows(fit) -> int:
    """Rows of the linear system a machine fit solved: its coefficients."""
    coef = fit.alpha if fit.alpha is not None else fit.theta
    return int(fit.beta.size + coef.size)


# Work counters read from a call's result.
COUNTERS = {
    "solver.krr_fit": ("system_rows", _system_rows),
    "spectra.feature_matrix": ("values", lambda out: int(out.size)),
    "spectra.gram_R": ("entries", lambda out: int(out.size)),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.names: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.captures: list[tuple[str, inspect.BoundArguments, object]] = []
        self.capture = False
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = [-1]
        self._next = 0

    def install(self) -> None:
        """Wrap each public function of the layers wherever it is bound."""
        modules = {name: importlib.import_module(f"dckrr.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (importlib.import_module("dckrr"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self.bindings.append(f"{mod.__name__}.{attr}")
        self.missing = [name for name in EXPECTED if name not in self.names]

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if name in CAPTURED else None
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, index, start, end, parent))
            if counter is not None:
                counts[f"{name}.{counter[0]}"] += counter[1](out)
            if signature is not None and self.capture:
                self.captures.append((name, signature.bind(*args, **kwargs), out))
            return out

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds, self seconds, top-level seconds."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            child[parent] += end - start
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in self.names}
        top = 0.0
        for sid, index, start, end, parent in self.spans:
            rec = out[self.names[index]]
            rec["calls"] += 1
            rec["total"] += end - start
            rec["self"] += end - start - child[sid]
            if parent == -1:
                top += end - start
        out["<top>"] = {"calls": 0, "total": top, "self": top}
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: id, name, start, end, parent."""
        with open(path, "w") as fh:
            for sid, index, start, end, parent in sorted(self.spans):
                fh.write(json.dumps([sid, self.names[index], start, end, parent]) + "\n")
