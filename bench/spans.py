"""In-memory span tracing of the calls the CLI makes into each conepde module.

Spans are recorded from outside the package: while a ``Tracer`` is active it
replaces module attributes with timing wrappers and restores them on exit, so
nothing under ``src/`` changes.  A span is ``(name, start, end, parent, op)``
plus a few counts; the layer of a span is the part of its name before the
first dot.  ``conepde.solver`` sees ``scipy.sparse.linalg`` through a proxy
that wraps every callable it hands out, so any linear-solver entry point the
solver uses is traced without naming it here.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import scipy.sparse as sp

# (module, attribute, span name); the module attribute is what callers look
# up at call time, so patching it reaches every call made through it.
TARGETS = (
    ("conepde.cli", "run", "cli.run"),
    ("conepde.cli", "solve_dirichlet", "solver.solve_dirichlet"),
    ("conepde.cli", "read_gridfunction", "calculus.read_gridfunction"),
    ("conepde.cli", "write_gridfunction", "calculus.write_gridfunction"),
    ("conepde.cli", "inf_convolution", "regularization.inf_convolution"),
    ("conepde.cli", "upper_envelope", "regularization.upper_envelope"),
    ("conepde.solver", "_newton_stage", "solver.newton_stage"),
    ("conepde.solver", "divergence_part_field", "operators.divergence_part_field"),
    ("conepde.analysis", "abp_check", "analysis.abp_check"),
    ("conepde.analysis", "hoelder_check", "analysis.hoelder_check"),
    ("conepde.analysis", "doubling_diagnostic", "analysis.doubling_diagnostic"),
    ("conepde.analysis", "hoelder_norm", "calculus.hoelder_norm"),
    ("conepde.calculus", "_subsample_flat", "calculus.subsample"),
)


def _solve_counts(args, result) -> dict:
    report = result[1]
    iters = [s.iterations for s in report.stages]
    return {"stages": len(iters), "newton_steps": sum(iters),
            "idle_stages": sum(1 for k in iters if k == 0),
            "converged": bool(report.converged)}


def _matrix_counts(args, result) -> dict:
    if args and sp.issparse(args[0]):
        data = args[0].data
        return {"nnz": int(data.size), "zeros": int((data == 0.0).sum())}
    return {}


# counts recorded on a span from the call's arguments and result
COUNTS = {
    "solver.solve_dirichlet": _solve_counts,
    "calculus.subsample": lambda args, idx: {"nodes": int(len(idx))},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.counts = parent, op, {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``conepde.solver``."""

    def __init__(self, module, tracer):
        self._module, self._tracer, self._cache = module, tracer, {}

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if not callable(attr) or isinstance(attr, type):
            return attr
        if name not in self._cache:
            self._cache[name] = self._tracer.wrap(f"linalg.{name}", attr,
                                                  counts=_matrix_counts)
        return self._cache[name]


class Tracer:
    """Collects spans while active; ``missing`` lists targets not found."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None
        self.missing: list[str] = []

    def wrap(self, name, fn, counts=None):
        counts = counts or COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts.update(counts(args, result))
            return result
        return traced

    @contextmanager
    def active(self, op):
        """Patch every target for the duration of one operation."""
        self.op = op
        saved = []
        try:
            for modname, attr, name in TARGETS:
                module = importlib.import_module(modname)
                if not hasattr(module, attr):
                    if f"{modname}.{attr}" not in self.missing:
                        self.missing.append(f"{modname}.{attr}")
                    continue
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            solver = importlib.import_module("conepde.solver")
            saved.append((solver, "spla", solver.spla))
            solver.spla = _LinalgProxy(solver.spla, self)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.op = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing_targets": self.missing,
                       "spans": [s.to_json() for s in self.spans]}, fh)
            fh.write("\n")


def _sum(spans, ids) -> float:
    return sum(spans[i].duration for i in ids)


def layer_metrics(spans: list, op, missing=()) -> dict:
    """Per-layer figures for the spans of one operation.

    Self time is a span's duration minus the time its descendant spans of
    other layers cover; descendants of the same layer are looked through.
    Counts that need a target listed in ``missing`` read -1.
    """
    mine = [i for i, s in enumerate(spans) if s.op == op]
    children: dict = {}
    for i in mine:
        children.setdefault(spans[i].parent, []).append(i)

    def self_time(index):
        layer, total = spans[index].layer, spans[index].duration
        todo = list(children.get(index, ()))
        while todo:
            i = todo.pop()
            if spans[i].layer == layer:
                todo.extend(children.get(i, ()))
            else:
                total -= spans[i].duration
        return total

    def named(*names):
        return [i for i in mine if spans[i].name in names]

    def count(ids, key):
        return sum(spans[i].counts.get(key, 0) for i in ids)

    solves = named("solver.solve_dirichlet")
    linear = [i for i in mine if spans[i].layer == "linalg"]
    residual = named("operators.divergence_part_field")
    residual_set = set(residual)
    stages = named("solver.newton_stage")
    subsample = named("calculus.subsample")
    hoelder_checks = named("analysis.hoelder_check")
    solve_s, linear_s = _sum(spans, solves), _sum(spans, linear)
    nnz, stage_count = count(linear, "nnz"), count(solves, "stages")
    backtracks = -1
    if "conepde.solver._newton_stage" not in missing:
        # residual evaluations in a stage: one before the first step, then
        # one per line-search trial; every accepted step ends one search
        backtracks = 0
        for st in stages:
            kids = children.get(st, ())
            backtracks += (sum(1 for c in kids if c in residual_set) - 1
                           - sum(1 for c in kids if spans[c].layer == "linalg"))
    nodes = -1
    if "conepde.calculus._subsample_flat" not in missing:
        nodes = max((spans[i].counts["nodes"] for i in subsample), default=0)
    return {
        "solver.solve_s": solve_s,
        "solver.self_s": sum(self_time(i) for i in solves),
        "solver.linear_s": linear_s,
        "solver.linear_calls": len(linear),
        "solver.linear_share": linear_s / solve_s if solve_s > 0 else 0.0,
        "solver.jac_nnz": nnz,
        "solver.jac_zero_frac": count(linear, "zeros") / nnz if nnz else 0.0,
        "solver.newton_steps": count(solves, "newton_steps"),
        "solver.stages": stage_count,
        "solver.idle_stage_frac": (count(solves, "idle_stages") / stage_count
                                   if stage_count else 0.0),
        "solver.backtracks": backtracks,
        "operators.residual_s": _sum(spans, residual),
        "operators.residual_calls": len(residual),
        "analysis.abp_check_s": _sum(spans, named("analysis.abp_check")),
        "analysis.hoelder_check_s": sum(self_time(i) for i in hoelder_checks),
        "analysis.doubling_diagnostic_s": _sum(spans, named("analysis.doubling_diagnostic")),
        "calculus.hoelder_norm_s": _sum(spans, named("calculus.hoelder_norm")),
        "calculus.hoelder_nodes": nodes,
        "calculus.gf_io_s": _sum(spans, named("calculus.read_gridfunction",
                                              "calculus.write_gridfunction")),
        "regularization.inf_convolution_s": _sum(spans, named("regularization.inf_convolution")),
        "regularization.upper_envelope_s": _sum(spans, named("regularization.upper_envelope")),
        "cli.self_s": sum(self_time(i) for i in named("cli.run")),
    }
