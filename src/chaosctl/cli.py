"""Command-line front end.

Subcommands produce either a single `name,value` line on stdout (threshold,
explog, minnoise) or CSV data (simulate, bifurcation, limitset, montecarlo,
repro).  CSV goes to stdout unless --out is given.  A regular or new --out
file is written atomically (temp file + rename), with the mode of the file
it replaces or, if new, the mode `open()` would give it; a device, FIFO or
other node that is not a regular file is written in place.  A symlink is
written through to its target.  Status and error messages go to stderr
only.

Each handler returns its output as an iterable of text chunks, and CSV is
written as it is formatted: `bifurcation` yields one chunk per alpha, so its
text is never held whole.  Its sweep still finishes before the first row is
written, because the `# escaped_cells:` header needs the full count; an
error in the sweep therefore writes nothing.  The sweep runs one alpha row
at a time, and each row's cells go as raw doubles to an anonymous temp file
in the system temp directory, flushed before the header and read back once
it is out, so memory holds one row of cells, not the grid.  A temp file
that cannot be created or written exits 1 with a one-line message and no
output.  A reader that closes stdout early (`| head`) ends the output
quietly.

One parser serves every command of a process: it is built on the first
parse and reused, and `repro` parses its preset with it too.
`build_parser()` still returns a new parser on each call.

Every CSV starts with `#`-prefixed comments; the `# args:` line holds every
flag of the command except --out and --threads, in the parser's order, so
re-running the printed flags reproduces the file byte-for-byte.
Trajectory, bifurcation and limit-set values are the `repr` of Python
floats, the shortest round-trip decimals.  The CSV writers format a
repeated value once where they can, and the bytes never depend on which
path ran.  Pairs are reused by identity: a replayed cycle of states, a
converged limit set and the control pairs of a constant or Bernoulli
schedule repeat the same tuple objects, and one object has one text.
A bifurcation cell is kept as the repeating unit of its tail: the unit's
rows are formatted once and their text repeated.  The default seed is 0
(never time-based); the CHAOSCTL_SEED environment variable overrides it
and an explicit --seed flag wins over both.

Exit status: 0 success, 1 domain/analysis errors or an --out file that
cannot be written, 2 usage errors (including a non-finite --x0/--y0, a
--seed or CHAOSCTL_SEED outside [0, 2^64) and a --threads below 1).

Startup imports only what every command shares: the acceptance table
(`chaosctl.verify`) loads on the first `verify`, and `tempfile` on the
first `bifurcation`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import stat
import sys
from array import array
from typing import Iterable, Iterator

from .control import ControlChannel, InvalidControl, NoiseDist, Stochastic
from .linalg2 import NormKind
from .maps import Branch, DomainError, MapKind, MapParams, Point2
from .presets import PRESETS
from .sim import (
    PERIOD_MAX,
    PointSet,
    SimConfig,
    SweepResult,
    alpha_grid,
    bifurcation_sweep,
    default_init_grid,
    limit_set,
    mc_convergence,
    run_trajectory,
)
from .stability import (
    NoWindow,
    Unstabilizable,
    expected_log_nu,
    build_nu_model,
    local_threshold,
    min_noise_for_stability,
    norm_threshold,
)


def _fmt(v: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(v))


def _seed_value(text: str) -> int:
    """A seed: an integer in [0, 2^64).  Streams keep only the low 64 bits of
    a seed, so a wider range would give one stream under two `# args:` lines."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {text!r}")
    return v


def _threads_value(text: str) -> int:
    """A thread count: an integer >= 1."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return v


def _env_seed() -> int:
    try:
        return _seed_value(os.environ.get("CHAOSCTL_SEED", "0"))
    except argparse.ArgumentTypeError as e:
        print(f"chaosctl: CHAOSCTL_SEED {e}", file=sys.stderr)
        raise SystemExit(2) from None


def _alpha_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--alpha-range wants lo:hi:n, got {text!r}"
        ) from None


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


def _add_map_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", choices=["henon", "lozi"], required=True)
    p.add_argument("--a", type=float, default=1.4)
    p.add_argument("--b", type=float, default=0.3)
    p.add_argument("--branch", choices=["plus", "minus"], default="plus")


def _add_channel2_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha2", "--beta", dest="alpha2", type=float, default=0.0)
    p.add_argument("--ell2", type=float, default=0.0)
    p.add_argument("--dist2", choices=[d.value for d in NoiseDist], default="bernoulli")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha1", "--alpha", dest="alpha1", type=float, default=0.0)
    p.add_argument("--ell1", type=float, default=0.0)
    p.add_argument("--dist1", choices=[d.value for d in NoiseDist], default="bernoulli")
    _add_channel2_flags(p)


def _add_init_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", type=_finite_float, required=True)
    p.add_argument("--y0", type=_finite_float, required=True)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed_value, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=_threads_value, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chaosctl",
        description="Target-oriented control experiments on the Henon and Lozi maps",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one controlled trajectory as CSV n,x,y,d1,d2")
    _add_map_flags(p)
    _add_schedule_flags(p)
    _add_init_flags(p)
    p.add_argument("--steps", type=int, default=2000)
    _add_common_flags(p)

    p = sub.add_parser("bifurcation", help="tail states vs control intensity as CSV alpha,x")
    _add_map_flags(p)
    p.add_argument("--alpha-range", type=_alpha_range, required=True, metavar="LO:HI:N")
    p.add_argument("--ell1", type=float, default=0.0)
    p.add_argument("--dist1", choices=[d.value for d in NoiseDist], default="bernoulli")
    _add_channel2_flags(p)
    p.add_argument("--inits", type=int, default=20, help="size of the initial-state grid")
    p.add_argument("--steps", type=int, default=700)
    _add_common_flags(p)

    p = sub.add_parser("limitset", help="post-transient tail points as CSV x,y")
    _add_map_flags(p)
    _add_schedule_flags(p)
    _add_init_flags(p)
    p.add_argument("--steps", type=int, default=700)
    _add_common_flags(p)

    p = sub.add_parser("threshold", help="critical control intensity alpha*")
    _add_map_flags(p)
    p.add_argument("--alpha2", "--beta", dest="alpha2", type=float, default=0.0)
    p.add_argument("--norm", choices=[n.value for n in NormKind], default=None,
                   help="norm-bound threshold instead of the local one")
    p.add_argument("--radius", type=float, default=None,
                   help="radius of the ball the norm bound holds on (default 0; needs --norm)")
    _add_common_flags(p)

    p = sub.add_parser("explog", help="expected log of the contraction factor")
    _add_map_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--norm", choices=["linf", "l1"], required=True)
    p.add_argument("--radius", type=float, default=0.0)
    p.add_argument("--method", choices=["closed-form", "quadrature", "monte-carlo"],
                   default="closed-form")
    _add_common_flags(p)

    p = sub.add_parser("minnoise", help="smallest stabilizing ell1")
    _add_map_flags(p)
    p.add_argument("--alpha1", "--alpha", dest="alpha1", type=float, required=True)
    p.add_argument("--dist1", choices=[d.value for d in NoiseDist], default="bernoulli")
    _add_channel2_flags(p)
    p.add_argument("--norm", choices=["linf", "l1"], required=True)
    p.add_argument("--radius", type=float, default=0.0)
    _add_common_flags(p)

    p = sub.add_parser("montecarlo", help="convergence probability over repeated trials")
    _add_map_flags(p)
    _add_schedule_flags(p)
    _add_init_flags(p)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--trials", type=int, required=True)
    _add_common_flags(p)

    p = sub.add_parser("repro", help="replay a named experiment preset")
    p.add_argument("preset", choices=sorted(PRESETS))
    _add_common_flags(p)

    p = sub.add_parser("verify", help="run the acceptance table; exit 0 iff all rows pass")
    _add_common_flags(p)

    return ap


def _params(args) -> MapParams:
    return MapParams(MapKind(args.map), args.a, args.b)


def _branch(args) -> Branch:
    return Branch(args.branch)


def _channel2(args) -> ControlChannel:
    return ControlChannel(args.alpha2, args.ell2, NoiseDist(args.dist2))


def _schedule(args) -> Stochastic:
    ch1 = ControlChannel(args.alpha1, args.ell1, NoiseDist(args.dist1))
    return Stochastic(ch1, _channel2(args))


def _seed(args) -> int:
    return args.seed if args.seed is not None else _env_seed()


#: Parsed values that the `# args:` line names as no flag: the subcommand,
#: printed first, and --out and --threads, which change no byte of the data.
_UNSTATED = ("command", "out", "threads")


#: Dash-led values that argparse reads as values, not options: its own
#: negative-number pattern (Python 3.11).  Any other dash-led value, such as
#: -1e-05, is written --flag=value, which every version reads as a value.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _args_line(args) -> str:
    """The `# args:` comment: re-running these flags reproduces the file.

    It names every parsed value outside _UNSTATED in the order of
    `vars(args)`, which argparse fills in the order the subcommand's flags
    were added, so a new flag enters the line with no edit here.
    """
    parts = ["# args:", args.command]
    for dest, v in vars(args).items():
        if dest in _UNSTATED:
            continue
        if dest == "seed":
            v = _seed(args)
        if isinstance(v, float):
            v = _fmt(v)
        elif isinstance(v, tuple):  # --alpha-range
            v = f"{_fmt(v[0])}:{_fmt(v[1])}:{v[2]}"
        else:
            v = str(v)
        flag = f"--{dest.replace('_', '-')}"
        if v.startswith("-") and not _NEGATIVE_NUMBER.fullmatch(v):
            parts.append(f"{flag}={v}")
        else:
            parts.append(f"{flag} {v}")
    return " ".join(parts)


def _config(args, initial: Point2) -> SimConfig:
    """SimConfig of --steps and the seed, started at initial."""
    return SimConfig(initial=initial, steps=args.steps, seed=_seed(args))


def _pair_texts(pairs: list) -> Iterable[str]:
    """The `a,b` text, two reprs, of each pair (a, b) of Python floats in pairs.

    When the last pair recurs, as the same object, among the PERIOD_MAX
    before it, as in a cycle the engine replays, a converged limit set or
    the pairs of a constant or Bernoulli schedule, each distinct object is
    formatted once, keyed by id: one object has one text.  pairs holds
    every object while the ids are taken, so no two of them share an id.
    """
    if pairs and any(p is pairs[-1] for p in pairs[-PERIOD_MAX - 1 : -1]):
        ids = list(map(id, pairs))
        texts = {k: f"{a!r},{b!r}" for k, (a, b) in dict(zip(ids, pairs)).items()}
        return map(texts.__getitem__, ids)
    return [f"{a!r},{b!r}" for a, b in pairs]


def _cmd_simulate(args) -> tuple[Iterable[str], int]:
    cfg = _config(args, Point2(args.x0, args.y0))
    traj = run_trajectory(_params(args), _branch(args), _schedule(args), cfg)
    x0, y0 = traj.points[0]
    lines = [
        _args_line(args),
        f"# outcome: {traj.outcome}",
        "n,x,y,d1,d2",
        f"0,{x0!r},{y0!r},,",
    ]
    rows = zip(itertools.count(1), _pair_texts(traj.points[1:]), _pair_texts(traj.controls))
    lines += [f"{n},{xy},{d}" for n, xy, d in rows]
    return ["\n".join(lines) + "\n"], 0


def _cmd_bifurcation(args) -> tuple[Iterable[str], int]:
    cfg = _config(args, Point2(0.1, 0.1))
    params, branch, ch2 = _params(args), _branch(args), _channel2(args)
    inits = default_init_grid(args.inits)
    lo, hi, n_alpha = args.alpha_range
    rows = (
        bifurcation_sweep(
            params, branch, ch2, (alpha,), inits, cfg,
            ell1=args.ell1, dist1=NoiseDist(args.dist1), threads=args.threads,
            first_stream=r * len(inits),
        )
        for r, alpha in enumerate(alpha_grid(lo, hi, n_alpha))
    )
    chunks = _bifurcation_csv(_args_line(args), rows, cfg.record_tail)
    try:
        header = next(chunks)  # the whole sweep runs here, so an error in it writes nothing
    except OSError as e:
        print(f"chaosctl: cannot write the sweep's temp file: {e.strerror or e}", file=sys.stderr)
        raise SystemExit(1) from None
    return itertools.chain([header], chunks), 0


def _bifurcation_csv(args_line: str, rows: Iterable[SweepResult], tail: int) -> Iterator[str]:
    """The bifurcation CSV of a sweep given as consecutive rows, each cell's
    unit repeated to tail values: its header, then one chunk of `alpha,x`
    rows per alpha with a cell that did not escape.

    The header's `# escaped_cells:` count is known only once every row has
    run, so each row's cell units go to an anonymous temp file as raw
    doubles as the row comes in, and memory keeps only an index of one unit
    length per cell, 0 for an escaped cell.  The spool is flushed before the
    header is yielded, so a temp file that cannot be written fails before
    any output; the units are then read back in order.  At most one row of
    cells is held at a time, and the spool is closed however the output
    ends: when it is written whole, when a chunk fails, or when the reader
    stops asking for chunks.
    """
    import tempfile  # loaded by the first sweep, not at startup

    alphas: list[float] = []
    lengths = array("I")
    with tempfile.TemporaryFile() as spool:
        for row in rows:
            alphas += row.alphas
            for unit in row.cells:
                lengths.append(len(unit) if unit else 0)
                if unit:
                    unit.tofile(spool)
        spool.seek(0)  # flushes the spool's buffer: a full disk fails here
        yield f"{args_line}\n# escaped_cells: {lengths.count(0)}\nalpha,x\n"
        per_alpha = len(lengths) // len(alphas)
        for i, alpha in enumerate(alphas):
            prefix = _fmt(alpha) + ","
            texts = []
            for length in lengths[i * per_alpha : (i + 1) * per_alpha]:
                if length:
                    unit = array("d")
                    unit.fromfile(spool, length)
                    texts.append(_cell_rows(prefix, unit, tail))
            if texts:
                yield "".join(texts)


def _cell_rows(prefix: str, unit: array, count: int) -> str:
    """The rows of one sweep cell; prefix is the `alpha,` text.

    The cell's tail is its unit repeated and cut to count values, so the
    unit's rows are formatted once, each value's repr (_fmt of a double)
    from the value itself, and their text is repeated the same way.
    """
    texts = list(map(repr, unit))
    whole, part = divmod(count, len(texts))
    sep = "\n" + prefix
    text = (prefix + sep.join(texts) + "\n") * whole
    if part:
        text += prefix + sep.join(texts[:part]) + "\n"
    return text


def _cmd_limitset(args) -> tuple[Iterable[str], int]:
    cfg = _config(args, Point2(args.x0, args.y0))
    pts = limit_set(_params(args), _branch(args), _schedule(args), cfg)
    lines = [_args_line(args), "x,y"]
    lines.extend(_pair_texts(pts))
    return ["\n".join(lines) + "\n"], 0


def _cmd_threshold(args) -> tuple[Iterable[str], int]:
    if args.norm is None:
        v = local_threshold(_params(args), _branch(args), args.alpha2)
    else:
        v = norm_threshold(
            _params(args), _branch(args), args.radius or 0.0, args.alpha2, NormKind(args.norm)
        )
    # a threshold is below 1, so where 5 digits round it to 1 print it whole
    text = f"{v:.5g}"
    return [f"alpha_star,{_fmt(v) if text == '1' else text}\n"], 0


def _cmd_explog(args) -> tuple[Iterable[str], int]:
    params, schedule = _params(args), _schedule(args)
    model = build_nu_model(
        params, _branch(args), args.radius, NormKind(args.norm), schedule.ch1, schedule.ch2
    )
    v = expected_log_nu(model, args.method, seed=_seed(args))
    return [f"e_ln_nu,{_fmt(v)}\n"], 0


def _cmd_minnoise(args) -> tuple[Iterable[str], int]:
    v = min_noise_for_stability(
        _params(args),
        _branch(args),
        args.radius,
        NormKind(args.norm),
        args.alpha1,
        NoiseDist(args.dist1),
        _channel2(args),
    )
    return [f"ell1_star,{v:.5g}\n"], 0


def _cmd_montecarlo(args) -> tuple[Iterable[str], int]:
    cfg = _config(args, Point2(args.x0, args.y0))
    rep = mc_convergence(
        _params(args),
        _branch(args),
        _schedule(args),
        PointSet((Point2(args.x0, args.y0),)),
        args.trials,
        cfg,
        threads=args.threads,
    )
    lines = [
        _args_line(args),
        "trials,converged,fraction,ci_low,ci_high",
        f"{rep.trials},{rep.converged},{_fmt(rep.fraction)},{_fmt(rep.ci_low)},{_fmt(rep.ci_high)}",
    ]
    return ["\n".join(lines) + "\n"], 0


def _cmd_verify(args) -> tuple[Iterable[str], int]:
    from . import verify  # the acceptance table loads only for this command

    rows = verify.run_all(threads=args.threads)
    lines = ["criterion,status,detail"]
    for row in rows:
        detail = row.detail.replace(",", ";")
        lines.append(f"{row.name},{'pass' if row.passed else 'FAIL'},{detail}")
    return ["\n".join(lines) + "\n"], 0 if all(r.passed for r in rows) else 1


#: Every subcommand except `repro`, which `_parse` resolves to its preset.
_HANDLERS = {
    "simulate": _cmd_simulate,
    "bifurcation": _cmd_bifurcation,
    "limitset": _cmd_limitset,
    "threshold": _cmd_threshold,
    "explog": _cmd_explog,
    "minnoise": _cmd_minnoise,
    "montecarlo": _cmd_montecarlo,
    "verify": _cmd_verify,
}


def _write_out(path: str, chunks: Iterable[str]) -> None:
    """Write chunks to path, or through a symlink to its target: in place
    where that is a device, a FIFO or any other node that is not a regular
    file, since a rename would replace the node itself; else to a temp file
    beside it, renamed onto it when whole.  The file keeps the mode of the
    file it replaces; a new one gets 0o666 less the umask, as
    `open(path, "w")` would create it."""
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        return
    tmp = os.path.join(os.path.dirname(path), f".chaosctl-{os.urandom(8).hex()}")
    # the kernel applies the umask to 0o666, leaving the process's umask as it is
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on its first use, not at import."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv; `repro` is replaced by its preset, parsed with the same parser."""
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "repro":
        preset = list(PRESETS[args.preset])
        for flag in ("seed", "out", "threads"):
            if getattr(args, flag) is not None:
                preset.append(f"--{flag}={getattr(args, flag)}")
        args = parser.parse_args(preset)
    if args.command == "threshold" and args.radius is not None and args.norm is None:
        parser.error("argument --radius: the local threshold has no radius; add --norm")
    return args


def render(argv: list[str]) -> str:
    """Parse argv for a data-producing command and return its output text."""
    args = _parse(argv)
    return "".join(_HANDLERS[args.command](args)[0])


def run_command(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit status."""
    try:
        # Usage errors exit 2 from parsing, or from a handler that reads
        # CHAOSCTL_SEED; either way they come back as the exit status.
        args = _parse(argv)
        chunks, status = _HANDLERS[args.command](args)
    except SystemExit as e:
        return int(e.code or 0)
    except (DomainError, NoWindow, Unstabilizable, InvalidControl, ValueError) as e:
        print(f"chaosctl: {e}", file=sys.stderr)
        return 1
    if args.out:
        try:
            _write_out(args.out, chunks)
        except OSError as e:
            print(f"chaosctl: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 1
        print(f"chaosctl: wrote {args.out}", file=sys.stderr)
    else:
        _write_stdout(chunks)
    return status


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write chunks to stdout, stopping quietly if the reader closes the pipe
    (`chaosctl repro fig1a | head`)."""
    out = sys.stdout  # looked up per call: callers may redirect it
    try:
        out.writelines(chunks)
        out.flush()
    except BrokenPipeError:
        # Point the descriptor at devnull, so that the interpreter's flush of
        # what is still buffered does not raise again at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
