"""Span recorder for the traced run.

`Recorder.install` wraps chaosctl's public functions under the names their
callers use (module attributes of `chaosctl.cli`, `chaosctl.verify` and
`chaosctl.sim`), so nothing inside the program changes.  Each call becomes
a span (name, start, end, parent, job id), kept in memory and written out
by the caller when the run ends.  Row boundaries of the acceptance table
are recorded as marks when `verify.CheckRow` is built.  It is installed in
the traced child process only; timed runs execute unmodified code.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
import types
from collections import defaultdict

#: Modules whose bindings are wrapped, and the layers whose public
#: functions are wrapped when bound there.  maps, linalg2 and control are
#: left out on purpose: they are called per step or per sample inside the
#: engine and the property suites, where a wrapper would distort the time.
CALLER_MODULES = ("chaosctl.cli", "chaosctl.verify", "chaosctl.sim")
SPANNED_LAYERS = ("chaosctl.sim", "chaosctl.stability")
ENTRY_POINTS = {
    "chaosctl.cli": ("run_command", "render", "build_parser"),
    "chaosctl.verify": ("run_all",),
}


def _count_bifurcation(args, result):
    return {"cells": len(result.alphas) * len(args["inits"])}


def _count_mc(args, result):
    return {"trials": result.trials}


def _count_trajectory(args, result):
    return {"steps": result.steps_run}


#: Work counts recorded at span boundaries, by span name.
COUNTERS = {
    "sim.bifurcation_sweep": _count_bifurcation,
    "sim.mc_convergence": _count_mc,
    "sim.run_trajectory": _count_trajectory,
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []  # [id, name, start_ns, end_ns, parent, job, counts]
        self.marks: list = []  # [time_ns, row name, job]
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        rec = self

        def wrapper(*args, **kwargs):
            stack = rec._stack()
            span = [next(rec._ids), name, 0, 0, stack[-1][0] if stack else None, rec.job, None]
            rec.spans.append(span)
            stack.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[6] = counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _mark_rows(self, cls):
        rec = self

        def make_row(*args, **kwargs):
            row = cls(*args, **kwargs)
            rec.marks.append([time.perf_counter_ns(), row.name, rec.job])
            return row

        return make_row

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(m) for m in CALLER_MODULES + SPANNED_LAYERS}
        for caller in CALLER_MODULES:
            mod = mods[caller]
            layer = caller.split(".")[1]
            for attr in ENTRY_POINTS.get(caller, ()):
                self._patch(mod, attr, self._wrap(f"{layer}.{attr}", getattr(mod, attr)))
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ in SPANNED_LAYERS
                    and obj.__module__ != caller
                ):
                    name = obj.__module__.split(".")[1] + "." + obj.__name__
                    self._patch(mod, attr, self._wrap(name, obj))
        verify = mods["chaosctl.verify"]
        self._patch(verify, "CheckRow", self._mark_rows(verify.CheckRow))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)


def self_times(spans: list) -> dict:
    """Self time in ns of each span: its duration minus its children's."""
    covered = defaultdict(int)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return {s[0]: (s[3] - s[2]) - covered[s[0]] for s in spans}


def row_times(spans: list, marks: list) -> dict:
    """Seconds per acceptance row, summed over runs of `verify.run_all`.

    A row's time runs from the previous row's mark (or the start of
    run_all) to its own mark, so the rows of one run_all partition it.
    """
    out: dict = defaultdict(float)
    runs = sorted((s[2], s[3]) for s in spans if s[1] == "verify.run_all")
    marks = sorted(marks)
    for start, end in runs:
        prev = start
        for t, row, _ in marks:
            if start <= t <= end:
                out[row] += (t - prev) / 1e9
                prev = t
    return dict(out)
