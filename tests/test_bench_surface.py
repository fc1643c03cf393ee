"""The surface of chaosctl that the benchmark in perfbench/ reads.

perfbench imports chaosctl's public names and runs its probes against
them, and BENCHMARK.json lists the metrics a traced run must report.
These tests read perfbench/ and BENCHMARK.json and change nothing there.
"""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import pathlib

import pytest

from chaosctl import cli
from chaosctl.sim import mc_convergence

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _chaosctl_imports():
    """(file, module, name) of every `from chaosctl... import name` in perfbench."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chaosctl":
                out += [(path.name, node.module, alias.name) for alias in node.names]
    return out


def test_perfbench_imports_resolve():
    imports = _chaosctl_imports()
    assert imports  # probes.py reads the library directly
    missing = [
        f"{file}: from {module} import {name}"
        for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_perfbench_calls_bind():
    # every call perfbench makes to an imported chaosctl name binds to that
    # name's signature, also the calls no test runs, such as the thread probe's
    names = {name: getattr(importlib.import_module(module), name)
             for _, module, name in _chaosctl_imports()}
    calls, bad = 0, []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in names):
                continue
            calls += 1
            # `f(*xs)` or `f(**kw)` fixes only the arguments it spells out
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            args = [None] * sum(not isinstance(a, ast.Starred) for a in node.args)
            kwargs = {k.arg: None for k in node.keywords if k.arg is not None}
            sig = inspect.signature(names[node.func.id])
            try:
                (sig.bind_partial if spread else sig.bind)(*args, **kwargs)
            except TypeError as e:
                bad.append(f"{path.name}:{node.lineno}: {node.func.id}: {e}")
    assert calls
    assert not bad


def test_thread_speedup_metric_matches_mc_convergence():
    # probes.thread_speedup reports sim.thread_speedup only while
    # mc_convergence takes `threads`; the traced run needs every listed name.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = "sim.thread_speedup" in {m["name"] for m in spec["per_layer"]}
    assert ("threads" in inspect.signature(mc_convergence).parameters) == listed


def _load(name):
    """A perfbench module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def probes():
    return _load("probes")


def test_step_probes_run_every_step(probes):
    # _steps raises unless the run takes all its steps, neither converging
    # nor escaping
    assert probes.STEP_PROBES
    for params, schedule, steps in probes.STEP_PROBES.values():
        probes._steps(params, schedule, steps)


def test_interactive_jobs_match_golden_digests(tmp_path):
    # every interactive job at every program seed, in one process as the
    # benchmark child runs them, hashed by the child's own digest
    child, workloads = _load("child"), _load("workloads")
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["interactive"]
    assert len(golden) == workloads.PROGRAM_SEEDS
    wrong = []
    for seed in range(workloads.PROGRAM_SEEDS):
        want = golden[workloads.golden_key("interactive", seed)]
        got = {}
        for job in workloads.jobs("interactive", seed, str(tmp_path)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.run_command(job.argv)
            got[job.id] = child._check_output(status, out.getvalue(), job.out)["digest"]
        assert got.keys() == want.keys()
        wrong += [f"seed {seed}: {k}" for k in want if got[k] != want[k]]
    assert not wrong


@pytest.mark.parametrize("seed", [0, 11])
def test_figures_jobs_match_golden_digests(seed, tmp_path):
    # both figures jobs, each 4000 cells and an 800003-line CSV written with
    # --out, hashed by the child's own digest (which reads and removes the file)
    child, workloads = _load("child"), _load("workloads")
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["figures"]
    want = golden[workloads.golden_key("figures", seed)]
    got = {}
    for job in workloads.jobs("figures", seed, str(tmp_path)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.run_command(job.argv)
        got[job.id] = child._check_output(status, out.getvalue(), job.out)["digest"]
    assert got == want
