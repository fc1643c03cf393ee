import ast
import contextlib
import errno
import hashlib
import io
import math
import os
import shlex
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from chaosctl import (
    ControlChannel,
    NoiseDist,
    Periodic,
    Point2,
    SweepResult,
    alpha_grid,
    bifurcation_sweep,
    cli,
    default_init_grid,
    limit_set,
    run_trajectory,
)
from chaosctl.sim import RECORD_TAIL
from chaosctl.verify import CheckRow


def run_cli(argv, capsys):
    rc = cli.run_command(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_threshold_line(capsys):
    rc, out, _ = run_cli(
        ["threshold", "--map", "henon", "--a", "1.4", "--b", "0.3",
         "--branch", "plus", "--beta", "0"],
        capsys,
    )
    assert rc == 0
    assert out == "alpha_star,0.51639\n"


def _readme():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _readme_outputs():
    """(argv, output line) of each README command with a `# <output>` line under it."""
    lines = _readme().replace("\\\n", " ").splitlines()
    return [
        (shlex.split(command)[1:], output.removeprefix("# "))
        for command, output in zip(lines, lines[1:])
        if command.startswith("chaosctl ") and output.startswith("# ")
    ]


def test_readme_outputs(capsys):
    cases = _readme_outputs()
    assert [argv[0] for argv, _ in cases] == ["threshold", "threshold", "explog", "minnoise"]
    for argv, output in cases:
        assert run_cli(argv, capsys)[:2] == (0, output + "\n")


def test_readme_python_example():
    # each line of the example whose comment is a number or a tuple of numbers
    # computes it, to the digits the comment shows
    code = _readme().split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(code).body:
        src = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            values[node.lineno] = eval(src, namespace)
        else:
            exec(src, namespace)
            if isinstance(node, ast.Assign):
                values[node.lineno] = namespace[node.targets[0].id]
    claims = {}
    for lineno, line in enumerate(code.splitlines(), 1):
        try:
            want = ast.literal_eval(line.partition("# ")[2])
        except (ValueError, SyntaxError):
            continue  # prose, or no comment
        got = values[lineno]
        got, want = (tuple(got), want) if isinstance(want, tuple) else ((got,), (want,))
        claims[lineno] = tuple(round(g, len(repr(w).partition(".")[2])) for g, w in zip(got, want))
        assert claims[lineno] == want
    assert list(claims.values()) == [(0.6314, 0.1894), (0.51639,)]


def test_threshold_norm_variant(capsys):
    rc, out, _ = run_cli(
        ["threshold", "--map", "lozi", "--beta", "0", "--norm", "l1",
         "--radius", "0.01"],
        capsys,
    )
    assert rc == 0
    assert out == "alpha_star,0.5\n"


def test_explog_value(capsys):
    rc, out, _ = run_cli(
        ["explog", "--map", "lozi", "--norm", "l1", "--alpha1", "0.27",
         "--alpha2", "0.9", "--ell1", "0.2", "--ell2", "0.55",
         "--dist1", "bernoulli", "--dist2", "bernoulli"],
        capsys,
    )
    assert rc == 0
    key, value = out.strip().split(",")
    assert key == "e_ln_nu"
    assert abs(float(value) - (-0.0016)) < 5e-4


@pytest.mark.parametrize("method", ["closed-form", "quadrature"])
def test_explog_small_uniform_noise_closed_form_is_the_quadrature(method, capsys):
    # the antiderivative form printed 0.019712210696372745 here
    rc, out, _ = run_cli(
        ["explog", "--map", "henon", "--norm", "l1", "--alpha1", "0.44",
         "--ell1", "1e-12", "--dist1", "uniform", "--alpha2", "0.9", "--method", method],
        capsys,
    )
    assert (rc, out) == (0, "e_ln_nu,0.019767156153697188\n")


def test_minnoise_line(capsys):
    rc, out, _ = run_cli(
        ["minnoise", "--map", "henon", "--norm", "linf", "--alpha1", "0.44"],
        capsys,
    )
    assert rc == 0
    key, value = out.strip().split(",")
    assert key == "ell1_star"
    assert abs(float(value) - 0.4279) < 1e-3


def test_usage_errors_exit_2(capsys):
    assert cli.run_command(["threshold", "--map", "saturn"]) == 2
    assert cli.run_command(["simulate", "--map", "henon"]) == 2  # missing --x0/--y0
    assert cli.run_command(["repro", "fig99x"]) == 2
    assert cli.run_command(["bifurcation", "--map", "henon",
                            "--alpha-range", "bogus"]) == 2
    capsys.readouterr()


def test_domain_error_exit_1(capsys):
    rc, out, err = run_cli(
        ["threshold", "--map", "lozi", "--a", "0.2", "--b", "0.5", "--beta", "0"],
        capsys,
    )
    assert rc == 1
    assert out == ""
    assert "lozi" in err


@pytest.mark.parametrize("argv", [
    ["threshold", "--map", "henon", "--a", "1e308"],
    ["threshold", "--map", "henon", "--a", "5e307"],
    ["threshold", "--map", "henon", "--b", "1e308"],
    ["simulate", "--map", "henon", "--a", "1e308", "--x0", "0", "--y0", "0", "--steps", "3"],
    ["threshold", "--map", "lozi", "--a", "0.5000000000000001", "--b", "1.5"],
], ids=["henon-nan", "henon-inf", "henon-b-inf", "simulate-nan", "lozi-zero-denominator"])
def test_equilibrium_overflow_exit_1(argv, capsys):
    # no NaN or infinite equilibrium reaches the output
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("chaosctl: ") and err.count("\n") == 1


@pytest.mark.parametrize("norm", [[], ["--norm", "linf"], ["--norm", "l1"], ["--norm", "spectral"]],
                         ids=["local", "linf", "l1", "spectral"])
def test_threshold_that_rounds_to_1_exits_1(norm, capsys):
    # 1 - 1/denom rounds to 1.0 once denom passes about 2^53
    rc, out, err = run_cli(["threshold", "--map", "henon", "--a", "1e200"] + norm, capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("chaosctl: ") and err.count("\n") == 1


@pytest.mark.parametrize("norm,shown", [
    ([], "0.9999994999999"),
    (["--norm", "linf"], "0.999999500000075"),
    (["--norm", "l1"], "0.9999996499998774"),
    (["--norm", "spectral"], "0.9999995230302323"),
], ids=["local", "linf", "l1", "spectral"])
def test_threshold_close_to_1_prints_its_digits(norm, shown, capsys):
    # five significant digits would print 1
    rc, out, _ = run_cli(["threshold", "--map", "henon", "--a", "1e12"] + norm, capsys)
    assert (rc, out) == (0, f"alpha_star,{shown}\n")


@pytest.mark.parametrize("command", ["explog", "minnoise"])
@pytest.mark.parametrize("radius,shown", [("-1", "-1.0"), ("nan", "nan")])
def test_bad_radius_exit_1(command, radius, shown, capsys):
    rc, out, err = run_cli(
        [command, "--map", "henon", "--alpha1", "0.44", "--norm", "linf",
         "--radius", radius],
        capsys,
    )
    assert (rc, out) == (1, "")
    assert err == f"chaosctl: radius must be finite and >= 0, got {shown}\n"


def test_no_window_exit_1(capsys):
    rc, _, err = run_cli(
        ["minnoise", "--map", "henon", "--norm", "linf", "--alpha1", "0.43"],
        capsys,
    )
    assert rc == 1
    assert "alpha1" in err


def test_simulate_csv_schema(capsys):
    rc, out, _ = run_cli(
        ["simulate", "--map", "henon", "--alpha1", "0.44", "--ell1", "0.3",
         "--x0", "0.3", "--y0", "0.1", "--steps", "800"],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# args: simulate ") for l in comments)
    header_at = lines.index("n,x,y,d1,d2")
    assert lines[header_at + 1] == "0,0.3,0.1,,"
    first = lines[header_at + 2].split(",")
    assert first[0] == "1"
    assert float(first[3]) in (0.14, 0.74)


def test_out_file_atomic_and_equal_to_stdout(tmp_path, capsys):
    argv = ["threshold", "--map", "henon", "--beta", "0.9"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    path = tmp_path / "thr.csv"
    rc = cli.run_command(argv + ["--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    assert path.read_text(encoding="utf-8") == out
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".chaosctl-")]


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


_THRESHOLD = ["threshold", "--map", "henon", "--beta", "0.9"]


def test_out_creates_a_file_with_the_mode_open_gives(tmp_path, capsys, umask_022):
    path = tmp_path / "thr.csv"
    assert cli.run_command(_THRESHOLD + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o666], ids=oct)
def test_out_keeps_the_mode_of_the_file_it_replaces(mode, tmp_path, capsys, umask_022):
    path = tmp_path / "thr.csv"
    path.write_bytes(b"old bytes\n")
    os.chmod(path, mode)
    assert cli.run_command(_THRESHOLD + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text(encoding="utf-8") == cli.render(_THRESHOLD)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


@pytest.mark.parametrize("target_exists", [True, False])
def test_out_writes_through_a_symlink_to_its_target(target_exists, tmp_path, capsys):
    target, link = tmp_path / "data" / "thr.csv", tmp_path / "link.csv"
    target.parent.mkdir()
    if target_exists:
        target.write_bytes(b"old bytes\n")
    link.symlink_to(target)
    rc, out, err = run_cli(_THRESHOLD + ["--out", str(link)], capsys)
    assert (rc, out, err) == (0, "", f"chaosctl: wrote {link}\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == cli.render(_THRESHOLD)
    assert os.listdir(tmp_path / "data") == ["thr.csv"]


def test_threshold_radius_without_norm_is_usage_error(capsys):
    # the local threshold has no radius, so a radius it ignored would mislead
    rc, out, err = run_cli(["threshold", "--map", "henon", "--radius", "5"], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: chaosctl ")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        "chaosctl: error: argument --radius: the local threshold has no radius; add --norm"
    ]
    assert run_cli(["threshold", "--map", "henon", "--norm", "l1"], capsys)[:2] == (
        run_cli(["threshold", "--map", "henon", "--norm", "l1", "--radius", "0"], capsys)[:2]
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_onto_a_fifo_writes_through_it(tmp_path, capsys):
    # a rename onto PATH would replace the node, as it would /dev/null; the
    # reader is a daemon joined with a timeout, so a replaced FIFO fails the
    # test rather than hanging it
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, encoding="utf-8") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    rc, out, _ = run_cli(["threshold", "--map", "henon", "--out", str(fifo)], capsys)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert (rc, out) == (0, "")
    assert got == ["alpha_star,0.51639\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_out_into_missing_directory_exit_1(tmp_path, capsys):
    path = tmp_path / "missing" / "thr.csv"
    rc, out, err = run_cli(["threshold", "--map", "henon", "--out", str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err == f"chaosctl: cannot write {path}: No such file or directory\n"
    assert os.listdir(tmp_path) == []


def test_out_onto_directory_leaves_no_temp_file(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    rc, _, err = run_cli(
        ["threshold", "--map", "henon", "--out", str(tmp_path / "taken")], capsys
    )
    assert rc == 1
    assert err.startswith(f"chaosctl: cannot write {tmp_path / 'taken'}: ")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["taken"]


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["limitset"],
    ["montecarlo", "--trials", "3"],
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--x0", "--y0"])
def test_non_finite_initial_state_is_usage_error(command, value, flag, capsys):
    argv = command + ["--map", "henon", "--x0", "0.3", "--y0", "0.1", f"{flag}={value}"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert f"{flag}: must be finite, got '{value}'" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--map", "lozi", "--a", "1.5", "--b", "0.25", "--alpha1", "0.3",
     "--ell1", "0.2", "--dist1", "uniform", "--beta", "0.6", "--ell2", "0.3",
     "--dist2", "uniform", "--x0", "0.1", "--y0", "0.2", "--steps", "800"],
    ["bifurcation", "--map", "henon", "--branch", "minus", "--alpha-range", "0.5:0.6:4",
     "--ell1", "0.1", "--dist1", "uniform", "--alpha2", "0.3", "--ell2", "0.05",
     "--dist2", "uniform", "--inits", "3", "--steps", "750"],
    ["limitset", "--map", "henon", "--alpha", "0.44", "--ell1", "0.05",
     "--beta", "0.1", "--ell2", "0.02", "--dist2", "uniform", "--x0", "0.3",
     "--y0", "0.1", "--steps", "900"],
    ["montecarlo", "--map", "lozi", "--alpha", "0.4", "--ell1", "0.15",
     "--dist1", "uniform", "--beta", "0.2", "--ell2", "0.1", "--dist2", "uniform",
     "--x0", "-10", "--y0", "-15", "--steps", "900", "--trials", "7"],
], ids=lambda argv: argv[0])
def test_args_line_round_trip(argv, capsys, monkeypatch):
    # the printed flags, seed resolved, reproduce the file without the environment
    monkeypatch.setenv("CHAOSCTL_SEED", "5")
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    args_line = next(l for l in out.splitlines() if l.startswith("# args: "))
    assert args_line.endswith(" --seed 5")
    monkeypatch.delenv("CHAOSCTL_SEED")
    rc, out2, _ = run_cli(args_line.removeprefix("# args: ").split(), capsys)
    assert rc == 0
    assert out2 == out


def _rerun_args_line(out, capsys):
    args_line = next(l for l in out.splitlines() if l.startswith("# args: "))
    return run_cli(args_line.removeprefix("# args: ").split(), capsys)


@pytest.mark.parametrize("command", [
    ["simulate", "--steps", "800"],
    ["limitset"],
    ["montecarlo", "--trials", "3"],
], ids=lambda c: c[0])
@pytest.mark.parametrize("flag,value", [
    ("--x0", "-0.00001"), ("--y0", "-2.5e-7"), ("--x0", "-1e-300"), ("--y0", "-1.5e+16"),
])
def test_args_line_negative_exponent_round_trip(command, flag, value, capsys):
    # argparse reads "-1e-05" as an option unless it is written --x0=-1e-05
    argv = command + ["--map", "henon", "--alpha1", "0.6", "--x0", "0.3", "--y0", "0.1",
                      f"{flag}={value}"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    assert f"{flag}={float(value)!r}" in out
    rc, out2, _ = _rerun_args_line(out, capsys)
    assert rc == 0
    assert out2 == out


def test_args_line_keeps_plain_negative_numbers(capsys):
    rc, out, _ = run_cli(["repro", "fig5a"], capsys)
    assert rc == 0
    assert " --x0 -10.0 --y0 -15.0 " in out


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["limitset"],
    ["montecarlo", "--trials", "3"],
], ids=lambda c: c[0])
@pytest.mark.parametrize("steps", ["5", "600"])
def test_short_runs(command, steps, capsys):
    # the tail is the last min(200, steps) states
    argv = command + ["--map", "lozi", "--alpha1", "0.4", "--ell1", "0.1",
                      "--x0", "0.3", "--y0", "0.1", "--steps", steps]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0, err
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert rows
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(",") if v)
    if command[0] == "simulate":
        assert len(rows) == int(steps) + 1
    rc, out2, _ = _rerun_args_line(out, capsys)
    assert rc == 0
    assert out2 == out


#: The Henon equilibrium under --alpha1 0.6, bit for bit a fixed point of the
#: controlled step, and a start far from it.
_AT_TARGET = ["--map", "henon", "--alpha1", "0.6",
              "--x0", "0.6313544770895048", "--y0", "0.18940634312685142"]
_OFF_TARGET = ["--map", "henon", "--alpha1", "0.6", "--x0", "0.3", "--y0", "0.1"]


@pytest.mark.parametrize("steps", ["1", "2"])
def test_one_state_tail_at_target_converges(steps, capsys):
    # a run shorter than CONV_WINDOW converges when all its states are
    # within CONV_TOL: the 1-step run's one state, the 2-step run's two
    rc, out, err = run_cli(["simulate", *_AT_TARGET, "--steps", steps], capsys)
    assert rc == 0, err
    assert f"# outcome: converged@{steps}\n" in out
    rc, out, err = run_cli(["montecarlo", *_AT_TARGET, "--steps", steps, "--trials", "3"],
                           capsys)
    assert rc == 0, err
    assert out.splitlines()[-1].startswith("3,3,1.0,")


def test_one_state_tail_off_target_is_bounded(capsys):
    rc, out, err = run_cli(["simulate", *_OFF_TARGET, "--steps", "1"], capsys)
    assert rc == 0, err
    assert "# outcome: bounded\n" in out
    rc, out, err = run_cli(["montecarlo", *_OFF_TARGET, "--steps", "1", "--trials", "3"],
                           capsys)
    assert rc == 0, err
    assert out.splitlines()[-1].startswith("3,0,0.0,")


def test_repro_out_file(tmp_path, capsys):
    path = tmp_path / "fig4a.csv"
    rc, out, _ = run_cli(["repro", "fig4a", "--seed", "3"], capsys)
    assert rc == 0
    assert cli.run_command(["repro", "fig4a", "--seed", "3", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == out


def test_repro_round_trip(tmp_path, capsys):
    rc, out, _ = run_cli(["repro", "fig3d"], capsys)
    assert rc == 0
    args_line = next(l for l in out.splitlines() if l.startswith("# args: "))
    argv = args_line.removeprefix("# args: ").split()
    rc, out2, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out2 == out


def test_repro_fig3d_tail_near_equilibrium(capsys):
    rc, out, _ = run_cli(["repro", "fig3d"], capsys)
    assert rc == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#") and l[0].isdigit()]
    tail = rows[-20:]
    assert all(abs(float(r[1]) - 0.631354) < 1e-6 for r in tail)


def test_repro_round_trip_limitset(capsys):
    rc, out, _ = run_cli(["repro", "fig4d"], capsys)
    assert rc == 0
    args_line = next(l for l in out.splitlines() if l.startswith("# args: "))
    argv = args_line.removeprefix("# args: ").split()
    assert argv[0] == "limitset"
    rc, out2, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out2 == out


def test_repro_threads_byte_identical():
    serial = cli.render(["repro", "fig3d", "--threads", "1"])
    parallel = cli.render(["repro", "fig3d", "--threads", "8"])
    assert serial == parallel


def test_bifurcation_threads_byte_identical():
    base = ["bifurcation", "--map", "henon", "--alpha-range", "0.5:0.6:8",
            "--inits", "3", "--steps", "700", "--ell1", "0.1"]
    assert cli.render(base + ["--threads", "1"]) == cli.render(base + ["--threads", "4"])


@pytest.mark.parametrize(
    "argv",
    [
        ["repro", "fig3d"],
        ["repro", "fig7d"],
        ["repro", "fig10b"],
        ["bifurcation", "--map", "henon", "--alpha-range", "0.3:0.6:20", "--ell1", "0.2861",
         "--alpha2", "0.8", "--inits", "5"],
        ["montecarlo", "--map", "henon", "--alpha1", "0.44", "--ell1", "0.3",
         "--x0", "0.3", "--y0", "0.1", "--trials", "50"],
    ],
    ids=["fig3d", "fig7d", "fig10b", "bifurcation-bernoulli", "montecarlo-4b"],
)
def test_repro_bytes_equal_in_fresh_interpreters(argv, monkeypatch):
    # every run is deterministic with no thread pool: one and two Bernoulli
    # channels, uniform noise, a noisy sweep and Monte Carlo trials render
    # the same bytes in this process and in fresh interpreters whose string
    # hashing differs
    monkeypatch.delenv("CHAOSCTL_SEED", raising=False)
    want = cli.render(argv).encode()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        assert _fresh_process(argv, env) == (0, want), hash_seed


def _values(unit, count):
    """A sweep cell's tail x values: its unit repeated and cut to count values."""
    return () if unit is None else [unit[k % len(unit)] for k in range(count)]


def _single_join_reference(argv):
    """The bifurcation CSV as one string, by the formula the streamed writer replaced."""
    args = cli._parse(argv)
    lo, hi, n_alpha = args.alpha_range
    cfg = cli._config(args, Point2(0.1, 0.1))
    res = bifurcation_sweep(
        cli._params(args), cli._branch(args),
        ControlChannel(args.alpha2, args.ell2, NoiseDist(args.dist2)),
        alpha_grid(lo, hi, n_alpha), default_init_grid(args.inits), cfg,
        ell1=args.ell1, dist1=NoiseDist(args.dist1),
    )
    escaped = sum(cell is None for cell in res.cells)
    lines = [cli._args_line(args), f"# escaped_cells: {escaped}", "alpha,x"]
    per_alpha = len(res.cells) // len(res.alphas)
    for i, alpha in enumerate(res.alphas):
        for cell in res.cells[i * per_alpha : (i + 1) * per_alpha]:
            lines.extend(f"{alpha!r},{x!r}" for x in _values(cell, cfg.record_tail))
    live = [i for i in range(n_alpha) if any(res.cells[i * per_alpha : (i + 1) * per_alpha])]
    return "\n".join(lines) + "\n", [res.alphas[i] for i in live]


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["henon", "lozi"]),
    a=st.floats(1.2, 3.0),
    lo=st.floats(0.0, 0.5),
    width=st.floats(0.01, 0.4),
    n_alpha=st.integers(2, 5),
    n_inits=st.integers(1, 4),
    ell1=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
    dist1=st.sampled_from(["bernoulli", "uniform"]),
    alpha2=st.sampled_from([0.0, 0.9]),
    steps=st.integers(1, 60),
)
def test_bifurcation_stream_bytes_and_chunks(kind, a, lo, width, n_alpha, n_inits, ell1,
                                             dist1, alpha2, steps):
    # steps <= 60 makes the whole run the tail; a high `a` or
    # ell1 makes every cell of some alphas escape
    argv = ["bifurcation", "--map", kind, "--a", repr(a),
            "--alpha-range", f"{lo!r}:{lo + width!r}:{n_alpha}", "--inits", str(n_inits),
            "--ell1", repr(ell1), "--dist1", dist1, "--alpha2", repr(alpha2),
            "--steps", str(steps)]
    expected, live_alphas = _single_join_reference(argv)

    assert cli.render(argv) == expected
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bif.csv")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.run_command(argv) == 0
            assert cli.run_command(argv + ["--out", path]) == 0
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode()
    assert out.getvalue() == expected

    chunks, status = cli._HANDLERS["bifurcation"](cli._parse(argv))
    header, *rows = list(chunks)
    assert status == 0
    assert header == "".join(expected.splitlines(keepends=True)[:3])
    assert len(rows) == len(live_alphas)
    for chunk, alpha in zip(rows, live_alphas):
        assert chunk.endswith("\n")
        assert {line.split(",")[0] for line in chunk.splitlines()} == {repr(alpha)}


def _spooled_rows(res, tail):
    """The row chunks that the spooled CSV writer renders from res with tail
    values a cell, fed to it one alpha row at a time, after checking its header."""
    per_alpha = len(res.cells) // len(res.alphas)
    rows = [SweepResult((alpha,), res.cells[i * per_alpha : (i + 1) * per_alpha])
            for i, alpha in enumerate(res.alphas)]
    header, *chunks = cli._bifurcation_csv("# args: bifurcation", rows, tail)
    escaped = sum(cell is None for cell in res.cells)
    assert header == f"# args: bifurcation\n# escaped_cells: {escaped}\nalpha,x\n"
    return chunks


def test_bifurcation_rows_bytes():
    # Signed zeros share an alpha and a unit (0.0 == -0.0, but their reprs
    # differ), units repeat whole and in part, some cells escaped, and every
    # cell of alphas[1] escaped.
    res = SweepResult(
        alphas=(0.1, 0.25, 0.5),
        cells=[
            array("d", [0.0, -0.0, 0.3]), array("d", [-0.0]), None,
            None, None, None,
            array("d", [0.7, 1e-300]), None, array("d", [-2.5, 0.7, 0.1 + 0.2]),
        ],
    )
    chunks = _spooled_rows(res, 5)
    reference = [
        "".join(f"{alpha!r},{x!r}\n" for cell in res.cells[3 * i : 3 * i + 3]
                for x in _values(cell, 5))
        for i, alpha in enumerate(res.alphas)
    ]
    assert chunks == [reference[0], reference[2]]
    assert chunks[0] == "0.1,0.0\n0.1,-0.0\n0.1,0.3\n0.1,0.0\n0.1,-0.0\n" + "0.1,-0.0\n" * 5
    assert chunks[1] == (
        "0.5,0.7\n0.5,1e-300\n" * 2 + "0.5,0.7\n"
        + "0.5,-2.5\n0.5,0.7\n0.5,0.30000000000000004\n0.5,-2.5\n0.5,0.7\n"
    )


# SHA-256 of `repro <preset> --seed 0` for the sweep presets that the
# benchmark's golden digests do not cover: Lozi with y-control, Lozi under
# Bernoulli noise, and uniform noise on both maps.
_SWEEP_DIGESTS = {
    "fig2b": "65ede986b1667c1c9dd1c926808c26087dbe4787e298f3395a6f1bf53a5ad6aa",
    "fig8c": "8ba756088416ec00f5063203f6778ca09abfe5dadaecd4d91b620ebdae53ad65",
    "fig9b": "89ca25b2e3e9adb8375b3fcbf89458986d591b57854d347302b1eef3ee7c8d03",
    "fig9c": "aeb6e521a024c7f006d40e918cd97e67f46d61b24af2b7e791a9d478744e2b51",
}


def test_alpha_range_whose_top_rounds_up_runs(capsys):
    # the grid's computed top was 1.0, outside the channel's [0, 1)
    rc, out, err = run_cli(
        ["bifurcation", "--map", "henon", "--alpha-range",
         "0.36021848150999086:0.9999999999999999:341", "--inits", "1", "--steps", "1"],
        capsys,
    )
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1].startswith("0.9999999999999999,")


def test_signed_zero_mean_with_zero_amplitude_is_not_constant():
    # -0.0 + 0.0 * chi is -0.0 at chi = -1 but 0.0 at chi = +1
    text = cli.render(["simulate", "--map", "henon", "--alpha1", "-0", "--ell1", "0",
                       "--x0", "0.3", "--y0", "0.1", "--steps", "700"])
    d1 = [line.split(",")[3] for line in text.splitlines()[4:]]
    assert len(d1) == 700 and set(d1) == {"-0.0", "0.0"}


@pytest.mark.parametrize("preset", sorted(_SWEEP_DIGESTS))
def test_sweep_preset_bytes(preset):
    text = cli.render(["repro", preset, "--seed", "0"])
    assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_DIGESTS[preset]


def test_closed_stdout_pipe_exits_quietly():
    # about 3 MB of CSV, far more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "chaosctl.cli", "bifurcation", "--map", "henon",
         "--alpha-range", "0.5:0.6:20", "--inits", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().startswith(b"# args: bifurcation ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_out_keeps_old_file_when_a_chunk_fails(tmp_path, capsys, monkeypatch, spools):
    csv = cli._bifurcation_csv

    def fail_after_first_row(*args):
        chunks = csv(*args)
        yield next(chunks)  # the header
        yield next(chunks)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_bifurcation_csv", fail_after_first_row)
    path = tmp_path / "bif.csv"
    path.write_bytes(b"old bytes\n")
    rc, out, err = run_cli(
        ["bifurcation", "--map", "henon", "--alpha-range", "0.5:0.6:4", "--inits", "2",
         "--out", str(path)],
        capsys,
    )
    assert rc == 1
    assert out == ""
    assert err == f"chaosctl: cannot write {path}: No space left on device\n"
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["bif.csv"]
    assert len(spools) == 1 and spools[0].closed


@pytest.mark.parametrize("out", [False, True])
def test_sweep_error_writes_nothing(out, tmp_path, capsys):
    argv = ["bifurcation", "--map", "henon", "--alpha-range", "0.6:0.4:10"]
    if out:
        argv += ["--out", str(tmp_path / "bif.csv")]
    rc, stdout, err = run_cli(argv, capsys)
    assert rc == 1
    assert stdout == ""
    assert err == "chaosctl: need 0 <= lo < hi < 1, got 0.6, 0.4\n"
    assert os.listdir(tmp_path) == []


@pytest.fixture
def spools(monkeypatch):
    """Every temp file that `tempfile.TemporaryFile` makes from here on."""
    made = []
    make = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    return made


_SMALL_SWEEP = ["bifurcation", "--map", "henon", "--alpha-range", "0.5:0.6:4", "--inits", "2"]


@pytest.mark.parametrize("out", [False, True])
def test_error_inside_the_sweep_writes_nothing_and_closes_the_spool(out, tmp_path, capsys,
                                                                   spools):
    # a channel-1 amplitude is checked per cell, so this fails in the first row
    argv = _SMALL_SWEEP + ["--ell1", "-0.5"]
    if out:
        argv += ["--out", str(tmp_path / "bif.csv")]
    rc, stdout, err = run_cli(argv, capsys)
    assert (rc, stdout) == (1, "")
    assert err == "chaosctl: noise amplitude must be >= 0, got -0.5\n"
    assert os.listdir(tmp_path) == []
    assert len(spools) == 1 and spools[0].closed


def test_spool_is_closed_after_a_whole_run_and_an_unwritable_out(tmp_path, capsys, spools):
    assert cli.render(_SMALL_SWEEP).startswith("# args: bifurcation ")
    rc, stdout, err = run_cli(_SMALL_SWEEP + ["--out", str(tmp_path / "no" / "bif.csv")],
                              capsys)
    assert (rc, stdout) == (1, "")
    assert err.startswith("chaosctl: cannot write ") and err.count("\n") == 1
    assert len(spools) == 2 and all(spool.closed for spool in spools)


def test_spool_is_closed_when_the_reader_stops_early(spools):
    # a pipe whose read end is closed: the first flush raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as pipe, contextlib.redirect_stdout(pipe):
        assert cli.run_command(_SMALL_SWEEP) == 0
    assert len(spools) == 1 and spools[0].closed


@pytest.mark.parametrize("out", [False, True])
def test_unusable_temp_directory_exits_1_and_leaves_nothing(out, tmp_path, capsys,
                                                           monkeypatch):
    not_a_directory = tmp_path / "file"
    not_a_directory.write_bytes(b"")
    monkeypatch.setattr(tempfile, "tempdir", str(not_a_directory))
    argv = list(_SMALL_SWEEP)
    if out:
        (tmp_path / "bif.csv").write_bytes(b"old bytes\n")
        argv += ["--out", str(tmp_path / "bif.csv")]
    rc, stdout, err = run_cli(argv, capsys)
    assert (rc, stdout) == (1, "")
    assert err == "chaosctl: cannot write the sweep's temp file: Not a directory\n"
    assert sorted(os.listdir(tmp_path)) == (["bif.csv", "file"] if out else ["file"])
    assert not_a_directory.read_bytes() == b""
    if out:
        assert (tmp_path / "bif.csv").read_bytes() == b"old bytes\n"


def test_spool_that_cannot_be_written_exits_1(capsys, monkeypatch):
    class FullDisk(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    made = []
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: made.append(FullDisk()) or made[-1])
    rc, stdout, err = run_cli(_SMALL_SWEEP, capsys)
    assert (rc, stdout) == (1, "")
    assert err == "chaosctl: cannot write the sweep's temp file: No space left on device\n"
    assert len(made) == 1 and made[0].closed


class _FullDisk(io.RawIOBase):
    """A file whose every write fails as a full disk fails it."""

    def readable(self):
        return True

    def writable(self):
        return True

    def seekable(self):
        return True

    def seek(self, pos, whence=0):
        return 0

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("out", [False, True])
def test_spool_whose_last_flush_fails_exits_1_with_no_output(out, tmp_path, capsys,
                                                             monkeypatch):
    # the buffer holds every unit of the sweep, so the disk fails only when
    # the spool is flushed, after the last row
    made = []
    monkeypatch.setattr(
        tempfile, "TemporaryFile",
        lambda: made.append(io.BufferedRandom(_FullDisk(), 1 << 20)) or made[-1],
    )
    argv = list(_SMALL_SWEEP)
    if out:
        argv += ["--out", str(tmp_path / "bif.csv")]
    rc, stdout, err = run_cli(argv, capsys)
    assert (rc, stdout) == (1, "")
    assert err == "chaosctl: cannot write the sweep's temp file: No space left on device\n"
    assert os.listdir(tmp_path) == []
    assert len(made) == 1 and made[0].closed


#: The bound on how much the traced peak of a sweep may grow with its
#: alphas, stated before it was measured: one row's cells, that is the
#: doubles of 10 noisy 200-value tails, 16 000 bytes.  A sweep that keeps
#: every cell until it ends grows by 30 rows of them from 10 to 40 alphas.
_ROW_BYTES = 10 * RECORD_TAIL * 8


def test_bifurcation_memory_grows_by_less_than_a_row_with_the_alphas(tmp_path, capsys):
    # the uncontrolled end of the Henon diagram: every cell is a chaotic
    # 200-value tail under a constant schedule, so no row is lighter
    def argv(n_alpha):
        return ["bifurcation", "--map", "henon", "--alpha-range", f"0.0:0.1:{n_alpha}",
                "--inits", "10", "--out", str(tmp_path / "bif.csv")]

    def traced_peak(n_alpha):
        tracemalloc.start()
        try:
            assert cli.run_command(argv(n_alpha)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cli.run_command(argv(40))  # compiles the kernel and fills the caches
    small, large = traced_peak(10), traced_peak(40)
    with open(tmp_path / "bif.csv", encoding="utf-8") as fh:
        assert fh.read().split("\n", 2)[1] == "# escaped_cells: 0"
    capsys.readouterr()
    assert large - small < _ROW_BYTES


def test_limitset_csv(capsys):
    rc, out, _ = run_cli(
        ["limitset", "--map", "henon", "--alpha1", "0.6", "--x0", "0.3",
         "--y0", "0.1"],
        capsys,
    )
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "x,y"
    assert len(lines) == 201
    assert all(abs(float(l.split(",")[0]) - 0.6314) < 1e-3 for l in lines[1:])


def test_limitset_of_an_escaped_run_is_empty(capsys):
    # the README's example: the run escapes, so the file is its `# args:`
    # line and the header, with no rows and no outcome line, and exits 0
    argv = ["limitset", "--map", "henon", "--a", "3", "--alpha1", "0.1",
            "--x0", "5", "--y0", "5"]
    rc, out, err = run_cli(argv, capsys)
    assert (rc, err) == (0, "")
    assert out == cli._args_line(cli._parse(argv)) + "\nx,y\n"
    assert out.startswith("# args: limitset --map henon --a 3.0 ")


def test_montecarlo_csv(capsys):
    rc, out, _ = run_cli(
        ["montecarlo", "--map", "lozi", "--alpha", "0.59", "--x0", "5",
         "--y0", "5", "--trials", "25"],
        capsys,
    )
    assert rc == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "trials,converged,fraction,ci_low,ci_high"
    vals = lines[1].split(",")
    assert vals[0] == "25" and vals[1] == "25"
    assert float(vals[2]) == 1.0


def test_env_seed_and_flag_precedence(capsys, monkeypatch):
    argv = ["simulate", "--map", "henon", "--alpha1", "0.44", "--ell1", "0.3",
            "--x0", "0.3", "--y0", "0.1", "--steps", "800"]
    _, base, _ = run_cli(argv, capsys)
    monkeypatch.setenv("CHAOSCTL_SEED", "7")
    _, env7, _ = run_cli(argv, capsys)
    assert env7 != base
    assert "seed 7" in env7.replace("--seed 7", "seed 7")
    _, flag0, _ = run_cli(argv + ["--seed", "0"], capsys)
    assert flag0 == base  # explicit flag wins over the environment


def test_env_seed_invalid(capsys, monkeypatch):
    monkeypatch.setenv("CHAOSCTL_SEED", "a lot")
    with pytest.raises(SystemExit) as exc:
        cli.render(["simulate", "--map", "henon", "--alpha1", "0.5",
                    "--x0", "0.1", "--y0", "0.1"])
    assert exc.value.code == 2
    capsys.readouterr()


_SEED_ARGV = ["simulate", "--map", "henon", "--alpha1", "0.44", "--ell1", "0.3",
              "--x0", "0.3", "--y0", "0.1", "--steps", "800"]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_64_bits_is_usage_error(seed, capsys, monkeypatch):
    # a wider seed would alias one inside [0, 2^64) under another `# args:` line
    rc, out, err = run_cli(_SEED_ARGV + [f"--seed={seed}"], capsys)
    assert (rc, out) == (2, "")
    assert f"argument --seed: must lie in [0, 2^64), got '{seed}'" in err
    rc, out, err = run_cli(["repro", "fig3d", f"--seed={seed}"], capsys)
    assert (rc, out) == (2, "")
    monkeypatch.setenv("CHAOSCTL_SEED", seed)
    rc, out, err = run_cli(_SEED_ARGV, capsys)
    assert (rc, out) == (2, "")
    assert err == f"chaosctl: CHAOSCTL_SEED must lie in [0, 2^64), got '{seed}'\n"


def test_largest_seed_is_accepted(capsys, monkeypatch):
    top = str(2**64 - 1)
    rc, flag, _ = run_cli(_SEED_ARGV + ["--seed", top], capsys)
    assert rc == 0 and f"--seed {top}\n" in flag
    monkeypatch.setenv("CHAOSCTL_SEED", top)
    rc, env, _ = run_cli(_SEED_ARGV, capsys)
    assert (rc, env) == (0, flag)


def test_verify_wiring_pass_and_fail(capsys, monkeypatch):
    monkeypatch.setattr(
        "chaosctl.verify.run_all",
        lambda threads=None: [CheckRow("x", True, "ok"), CheckRow("y", True, "ok")],
    )
    rc, out, _ = run_cli(["verify"], capsys)
    assert rc == 0
    assert "x,pass,ok" in out
    monkeypatch.setattr(
        "chaosctl.verify.run_all",
        lambda threads=None: [CheckRow("x", True, "ok"), CheckRow("y", False, "boom")],
    )
    rc, out, _ = run_cli(["verify"], capsys)
    assert rc == 1
    assert "y,FAIL,boom" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chaosctl.cli", "threshold", "--map", "henon",
         "--beta", "0"],
        capture_output=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert proc.stdout == "alpha_star,0.51639\n"
    assert proc.stderr == ""


_SIMULATE_NO_SEED = ["simulate", "--map", "henon", "--alpha1", "0.44", "--ell1", "0.3",
                     "--x0", "0.3", "--y0", "0.1", "--steps", "300"]


def _fresh_process(argv, env):
    proc = subprocess.run([sys.executable, "-m", "chaosctl.cli", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch):
    # one parser serves every command of the process; no command may leave
    # state in it that changes a later one
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
    monkeypatch.delenv("CHAOSCTL_SEED", raising=False)
    cli._parser.cache_clear()
    steps = [
        (["repro", "fig99x"], None),
        (["--help"], None),
        (["repro", "fig3b", "--seed", "3"], None),
        (_SIMULATE_NO_SEED, "7"),
        (_SIMULATE_NO_SEED, None),
        (["threshold", "--map", "henon", "--beta", "0"], None),
        (["explog", "--map", "lozi", "--norm", "l1", "--alpha1", "0.27", "--alpha2", "0.9",
          "--ell1", "0.2", "--ell2", "0.55"], None),
        (["repro", "fig3d"], None),
    ]
    statuses = []
    for argv, env_seed in steps:
        if env_seed is None:
            monkeypatch.delenv("CHAOSCTL_SEED", raising=False)
        else:
            monkeypatch.setenv("CHAOSCTL_SEED", env_seed)
        rc = cli.run_command(argv)
        out = capsys.readouterr().out.encode()
        assert (rc, out) == _fresh_process(argv, dict(os.environ)), argv
        statuses.append(rc)
    assert statuses == [2, 0, 0, 0, 0, 0, 0, 0]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for _ in range(5):
        assert cli.run_command(["threshold", "--map", "henon", "--beta", "0"]) == 0
        assert cli.run_command(["repro", "fig3a"]) == 0
    capsys.readouterr()
    assert len(builds) == 1
    # build_parser itself stays a constructor
    assert build_parser() is not build_parser()


def test_parser_is_not_built_at_import():
    # the benchmark's setup time counts one build after the import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import chaosctl.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, encoding="utf-8",
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n")


# --- writers: each distinct value formatted once, the bytes of plain repr ----

_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -2.5, 5e-324, 0.1 + 0.2]
_value = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _cell(draw):
    """A sweep cell's unit of doubles: one value, a short cycle, all distinct
    or mixed."""
    kind = draw(st.sampled_from(["constant", "cycle", "distinct", "mixed"]))
    if kind == "constant":
        unit = [draw(_value)]
    elif kind == "cycle":
        unit = draw(st.lists(_value, min_size=2, max_size=40))
    elif kind == "distinct":
        unit = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=60, unique=True))
    else:
        unit = draw(st.lists(st.sampled_from(_SPECIAL), min_size=1, max_size=60))
    return array("d", unit)


@settings(deadline=None, max_examples=300)
@given(cells=st.lists(st.one_of(st.none(), _cell()), min_size=2, max_size=12),
       per_alpha=st.sampled_from([1, 2]), data=st.data())
def test_bifurcation_rows_equal_plain_repr(cells, per_alpha, data):
    cells = cells[: len(cells) // per_alpha * per_alpha]
    alphas = tuple(0.1 * i for i in range(len(cells) // per_alpha))
    # a tail that may cut a unit's last turn short, or hold one unit whole
    lengths = [len(cell) for cell in cells if cell is not None] or [1]
    tail = data.draw(st.one_of(st.integers(1, 200), st.sampled_from(lengths)))
    # the plain per-value rendering: one chunk per alpha with a row
    plain = [
        "".join(f"{alpha!r},{x!r}\n" for cell in cells[i * per_alpha : (i + 1) * per_alpha]
                for x in _values(cell, tail))
        for i, alpha in enumerate(alphas)
    ]
    assert _spooled_rows(SweepResult(alphas, cells), tail) == [chunk for chunk in plain if chunk]


_pair = st.tuples(_value, _value)


@settings(deadline=None, max_examples=300)
@given(head=st.lists(_pair, max_size=8), cycle=st.lists(_pair, min_size=1, max_size=8),
       n=st.integers(0, 40))
def test_pair_texts_equal_plain_repr(head, cycle, n):
    # states that recur, as a replayed cycle or a converged limit set, with
    # signed zeros, NaN and infinities among them
    states = head + (cycle * n)[:n]
    plain = [f"{x!r},{y!r}" for x, y in states]
    assert list(cli._pair_texts(states)) == plain


def test_pair_texts_keep_the_sign_of_zero():
    # equal pairs held as distinct objects, ahead of a shared object that
    # takes the identity-keyed path; then shared objects that are equal but
    # differ in the sign of zero
    shared = (0.0, 1.0)
    pairs = [tuple([-0.0, 1.0]) for _ in range(5)] + [tuple([0.0, 1.0]) for _ in range(5)]
    pairs += [shared] * 20
    plain = [f"{x!r},{y!r}" for x, y in pairs]
    assert list(cli._pair_texts(pairs)) == plain
    negative = (-0.0, 1.0)
    pairs = [shared, negative] * 20
    assert list(cli._pair_texts(pairs)) == ["0.0,1.0", "-0.0,1.0"] * 20


def _objects(xs):
    """The number of distinct objects among xs."""
    return len(set(map(id, xs)))


def _assert_shared(pairs, most):
    """pairs hold at most `most` objects, and _pair_texts gives each one text object."""
    assert len(pairs) > 100 and _objects(pairs) <= most
    assert _objects(list(cli._pair_texts(pairs))) == _objects(pairs)


def test_engine_pairs_share_objects():
    # the identity-keyed path of _pair_texts reads these shared objects
    argv = ["--map", "henon", "--x0", "0.3", "--y0", "0.1"]
    for flags, most in ([["--alpha1", "0.44", "--alpha2", "0.1"], 1],
                        [["--alpha1", "0.44", "--ell1", "0.3"], 2]):
        args = cli._parse(["simulate"] + flags + argv)
        traj = run_trajectory(cli._params(args), cli._branch(args), cli._schedule(args),
                              cli._config(args, Point2(args.x0, args.y0)))
        _assert_shared(traj.controls, most)
    # a constant schedule that ends in a 2-cycle, which the engine replays
    args = cli._parse(["limitset", "--alpha1", "0.44"] + argv)
    cfg = cli._config(args, Point2(args.x0, args.y0))
    outcome = run_trajectory(cli._params(args), cli._branch(args), cli._schedule(args), cfg,
                             record="tail").outcome
    assert outcome == Periodic(2)
    _assert_shared(limit_set(cli._params(args), cli._branch(args), cli._schedule(args), cfg), 2)


#: The `# args:` flags of each CSV subcommand, in the parser's order.
_ARGS_ORDER = {
    "simulate": ("map", "a", "b", "branch", "alpha1", "ell1", "dist1", "alpha2", "ell2",
                 "dist2", "x0", "y0", "steps", "seed"),
    "bifurcation": ("map", "a", "b", "branch", "alpha-range", "ell1", "dist1", "alpha2",
                    "ell2", "dist2", "inits", "steps", "seed"),
    "limitset": ("map", "a", "b", "branch", "alpha1", "ell1", "dist1", "alpha2", "ell2",
                 "dist2", "x0", "y0", "steps", "seed"),
    "montecarlo": ("map", "a", "b", "branch", "alpha1", "ell1", "dist1", "alpha2", "ell2",
                   "dist2", "x0", "y0", "steps", "trials", "seed"),
}


@pytest.mark.parametrize("command", sorted(_ARGS_ORDER))
def test_args_line_order(command):
    # flags given in another order, --out and --threads among them, and aliases
    argv = {
        "simulate": ["--steps", "5", "--y0", "0.1", "--x0", "0.3", "--beta", "0.2"],
        "bifurcation": ["--steps", "5", "--alpha-range", "0.4:0.6:3", "--inits", "2"],
        "limitset": ["--y0", "0.1", "--x0", "0.3", "--alpha", "0.5"],
        "montecarlo": ["--trials", "2", "--y0", "0.1", "--x0", "0.3", "--alpha", "0.5"],
    }[command]
    args = cli._parse([command, "--seed", "3", "--threads", "2", "--out", "x.csv"] + argv
                      + ["--map", "henon"])
    words = cli._args_line(args).split()
    assert words[:3] == ["#", "args:", command]
    assert tuple(w.removeprefix("--") for w in words[3::2]) == _ARGS_ORDER[command]


def _simulate_plain(argv):
    """`simulate` output with every value formatted by repr, row by row."""
    args = cli._parse(argv)
    traj = run_trajectory(cli._params(args), cli._branch(args), cli._schedule(args),
                          cli._config(args, Point2(args.x0, args.y0)))
    (x0, y0), *states = traj.points
    lines = [cli._args_line(args), f"# outcome: {traj.outcome}", "n,x,y,d1,d2", f"0,{x0!r},{y0!r},,"]
    lines += [f"{n},{x!r},{y!r},{d1!r},{d2!r}"
              for n, ((x, y), (d1, d2)) in enumerate(zip(states, traj.controls), start=1)]
    return "\n".join(lines) + "\n"


_RUN = ["--x0", "0.3", "--y0", "0.1", "--steps", "400"]


@pytest.mark.parametrize("argv", [
    # constant schedules: a replayed cycle, and -0.0 means drawn as 0.0 or -0.0
    ["--alpha1", "0.44"],
    ["--alpha1", "-0.0", "--alpha2", "0.3"],
    ["--alpha1", "0.5", "--alpha2", "-0.0"],
    ["--alpha1", "-0.0", "--alpha2", "-0.0"],
    # Bernoulli noise on one or both channels, with a -0.0 mean
    ["--alpha1", "0.44", "--ell1", "0.3"],
    ["--alpha1", "-0.0", "--ell1", "0.3", "--alpha2", "0.9", "--ell2", "0.05"],
    ["--alpha1", "0.3", "--ell1", "0.3", "--alpha2", "-0.0", "--ell2", "0.1"],
    # uniform noise: every control distinct
    ["--alpha1", "0.44", "--ell1", "0.3", "--dist1", "uniform"],
    ["--alpha1", "0.3", "--alpha2", "-0.0", "--ell2", "0.2", "--dist2", "uniform"],
    # converges, and escapes
    ["--alpha1", "0.7"],
    ["--a", "3", "--x0=-5", "--y0", "5"],
], ids=lambda a: " ".join(a))
@pytest.mark.parametrize("kind", ["henon", "lozi"])
def test_simulate_equals_plain_repr(kind, argv):
    argv = ["simulate", "--map", kind] + _RUN + argv
    assert cli.render(argv) == _simulate_plain(argv)


@pytest.mark.parametrize("alpha1", ["0.6", "0.1"], ids=["converged", "bounded"])
def test_limitset_equals_plain_repr(alpha1):
    argv = ["limitset", "--map", "henon", "--alpha1", alpha1, "--x0", "0.3", "--y0", "0.1"]
    args = cli._parse(argv)
    pts = limit_set(cli._params(args), cli._branch(args), cli._schedule(args),
                    cli._config(args, Point2(args.x0, args.y0)))
    assert len(set(pts)) == (1 if alpha1 == "0.6" else 200)
    plain = [cli._args_line(args), "x,y"] + [f"{x!r},{y!r}" for x, y in pts]
    assert cli.render(argv) == "\n".join(plain) + "\n"


def test_threshold_near_denominator_1_keeps_its_digits(capsys):
    # 1 - 1/(1 + 1e-17) is 0.0 in floating point; (denom - 1)/denom is not
    rc, out, _ = run_cli(["threshold", "--map", "lozi", "--a", "1e-17", "--b", "1"], capsys)
    assert (rc, out) == (0, "alpha_star,1e-17\n")


_THREADS_ARGV = {
    "simulate": ["--map", "henon", "--alpha1", "0.5", "--x0", "0.1", "--y0", "0.1"],
    "bifurcation": ["--map", "henon", "--alpha-range", "0.4:0.6:3"],
    "limitset": ["--map", "henon", "--alpha1", "0.5", "--x0", "0.1", "--y0", "0.1"],
    "threshold": ["--map", "henon"],
    "explog": ["--map", "henon", "--alpha1", "0.5", "--norm", "linf"],
    "minnoise": ["--map", "henon", "--alpha1", "0.5", "--norm", "linf"],
    "montecarlo": ["--map", "henon", "--alpha1", "0.5", "--x0", "0.1", "--y0", "0.1",
                   "--trials", "3"],
    "repro": ["fig3d"],
    "verify": [],
}


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(_THREADS_ARGV))
def test_threads_below_one_is_usage_error(command, threads, capsys, monkeypatch):
    argv = [command] + _THREADS_ARGV[command]
    assert cli._parse(argv + ["--threads", "1"]).threads == 1
    monkeypatch.setattr(cli, "_HANDLERS", {})  # no handler may run
    rc, out, err = run_cli(argv + ["--threads", threads], capsys)
    assert (rc, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"chaosctl {command}: error: argument --threads: must be >= 1, got '{threads}'"]


_STARTUP = """\
import contextlib, io, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import chaosctl.cli
chaosctl.cli.build_parser()
print(*sorted(set(sys.modules) - before))
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = chaosctl.cli.run_command(["bifurcation", "--map", "henon", "--alpha-range",
                                   "0.4:0.6:3", "--inits", "2", "--steps", "50", "--threads", "2"])
assert rc == 0 and out.getvalue().count("\\n") == 3 + 3 * 2 * 50, (rc, out.getvalue())
assert "concurrent.futures" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = chaosctl.cli.run_command(["verify"])
assert rc == 1 and out.getvalue().startswith("criterion,status,detail\\n"), (rc, out.getvalue())
assert "chaosctl.verify" in sys.modules
"""


def test_startup_imports_only_what_every_command_needs():
    # a fresh interpreter, as the console script starts one
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", _STARTUP, src],
                          capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "chaosctl.cli" in added
    lazy = {"dataclasses", "inspect", "concurrent.futures", "textwrap", "linecache",
            "chaosctl.verify"}
    assert not added & lazy
