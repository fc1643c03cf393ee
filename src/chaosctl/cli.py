"""Command-line front end.

Subcommands produce either a single `name,value` line on stdout (threshold,
explog, minnoise) or CSV data (simulate, bifurcation, limitset, montecarlo,
repro).  CSV goes to stdout unless --out is given, in which case the file is
written atomically (temp file + rename).  Status and error messages go to
stderr only.

Each handler returns its output as an iterable of text chunks, and CSV is
written as it is formatted: `bifurcation` yields one chunk per alpha, so its
text is never held whole.  Its sweep still finishes before the first row is
written, because the `# escaped_cells:` header needs the full count; an error
in the sweep therefore writes nothing.  A reader that closes stdout early
(`| head`) ends the output quietly.

One parser serves every command of a process: it is built on the first
parse and reused, and `repro` parses its preset with it too.
`build_parser()` still returns a new parser on each call.

Every CSV starts with `#`-prefixed comments; the `# args:` line holds the
canonical flag set, so re-running the printed flags reproduces the file
byte-for-byte.  Trajectory, bifurcation and limit-set values are the `repr`
of Python floats, the shortest round-trip decimals.  The CSV writers format
each distinct value once where values repeat: a converged or cycling tail,
a replayed cycle of states, the few control pairs of a constant or
Bernoulli schedule.  Equal floats need not have equal text (0.0 == -0.0),
so a writer reuses a text only where it has shown that no two equal values
differ in sign of zero, and formats value by value otherwise: the bytes
never depend on which path ran.  The default seed is 0 (never
time-based); the CHAOSCTL_SEED environment variable overrides it and an
explicit --seed flag wins over both.

Exit status: 0 success, 1 domain/analysis errors or an --out file that
cannot be written, 2 usage errors (including a non-finite --x0/--y0 and a
--seed or CHAOSCTL_SEED outside [0, 2^64)).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys
import tempfile
from typing import Iterable, Iterator, Optional

from .control import ControlChannel, InvalidControl, NoiseDist, Stochastic
from .linalg2 import NormKind
from .maps import Branch, DomainError, MapKind, MapParams, Point2
from .presets import PRESETS
from .sim import (
    PERIOD_MAX,
    RECORD_TAIL,
    PointSet,
    SimConfig,
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
from . import verify as verify_mod

_NORMS = {"linf": NormKind.LINF, "l1": NormKind.L1, "spectral": NormKind.L2SPECTRAL}
_DISTS = {"bernoulli": NoiseDist.BERNOULLI_PM1, "uniform": NoiseDist.UNIFORM_M1P1}


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
    p.add_argument("--dist2", choices=list(_DISTS), default="bernoulli")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha1", "--alpha", dest="alpha1", type=float, default=0.0)
    p.add_argument("--ell1", type=float, default=0.0)
    p.add_argument("--dist1", choices=list(_DISTS), default="bernoulli")
    _add_channel2_flags(p)


def _add_init_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x0", type=_finite_float, required=True)
    p.add_argument("--y0", type=_finite_float, required=True)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed_value, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=None)


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
    p.add_argument("--dist1", choices=list(_DISTS), default="bernoulli")
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
    p.add_argument("--norm", choices=list(_NORMS), default=None,
                   help="norm-bound threshold instead of the local one")
    p.add_argument("--radius", type=float, default=0.0)
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
    p.add_argument("--dist1", choices=list(_DISTS), default="bernoulli")
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
    return ControlChannel(args.alpha2, args.ell2, _DISTS[args.dist2])


def _schedule(args) -> Stochastic:
    return Stochastic(ControlChannel(args.alpha1, args.ell1, _DISTS[args.dist1]), _channel2(args))


def _seed(args) -> int:
    return args.seed if args.seed is not None else _env_seed()


_MAP_FLAGS = ("map", "a", "b", "branch")
_SCHEDULE_FLAGS = ("alpha1", "ell1", "dist1", "alpha2", "ell2", "dist2")

#: Canonical flags of each CSV subcommand, in `# args:` order.
_CANONICAL = {
    "simulate": _MAP_FLAGS + _SCHEDULE_FLAGS + ("x0", "y0", "steps", "seed"),
    "bifurcation": _MAP_FLAGS
    + ("alpha_range", "ell1", "dist1", "alpha2", "ell2", "dist2", "inits", "steps", "seed"),
    "limitset": _MAP_FLAGS + _SCHEDULE_FLAGS + ("x0", "y0", "steps", "seed"),
    "montecarlo": _MAP_FLAGS + _SCHEDULE_FLAGS + ("x0", "y0", "steps", "trials", "seed"),
}


#: Dash-led values that argparse reads as values, not options: its own
#: negative-number pattern (Python 3.11).  Any other dash-led value, such as
#: -1e-05, is written --flag=value, which every version reads as a value.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _args_line(args) -> str:
    """The `# args:` comment: re-running these flags reproduces the file."""
    parts = ["# args:", args.command]
    for dest in _CANONICAL[args.command]:
        v = _seed(args) if dest == "seed" else getattr(args, dest)
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


def _pair_texts(pairs: list, distinct: Optional[set] = None) -> Iterator[str]:
    """The `a,b` text, two reprs, of each pair (a, b) of Python floats in pairs.

    Given `distinct`, the set of the pairs, each distinct pair is formatted
    once.  The caller must have proved that equal pairs have equal text:
    0.0 == -0.0, but their reprs differ, and a dict keyed by value merges
    them.
    """
    if distinct is None:
        return (f"{a!r},{b!r}" for a, b in pairs)
    keys = list(distinct)
    return map(dict(zip(keys, _pair_texts(keys))).__getitem__, pairs)


def _recurring(states: list) -> Optional[set]:
    """The set of states, when they can be formatted once each; else None.

    That is when the last state recurs among the RECORD_TAIL before it, as
    in a cycle the engine replays or a limit set of one point, and no state
    holds a zero, so that equal states have equal text.
    """
    if states and states[-1] in states[-RECORD_TAIL - 1 : -1]:
        distinct = set(states)
        if not any(0.0 in p for p in distinct):
            return distinct
    return None


def _cmd_simulate(args) -> tuple[Iterable[str], int]:
    cfg = _config(args, Point2(args.x0, args.y0))
    schedule = _schedule(args)
    traj = run_trajectory(_params(args), _branch(args), schedule, cfg)
    x0, y0 = traj.points[0]
    lines = [
        _args_line(args),
        f"# outcome: {traj.outcome}",
        "n,x,y,d1,d2",
        f"0,{x0!r},{y0!r},,",
    ]
    states, controls = traj.points[1:], traj.controls
    # A constant or Bernoulli channel realizes at most two values, so the
    # controls hold at most four distinct pairs.  A realized d = alpha +
    # ell * chi is -0.0 only when alpha is (a sum is -0.0 only when both
    # terms are), so without a -0.0 alpha equal pairs have equal text.
    few = all(
        (ch.constant_value is not None or ch.dist is NoiseDist.BERNOULLI_PM1)
        and math.copysign(1.0, ch.alpha) > 0.0
        for ch in (schedule.ch1, schedule.ch2)
    )
    rows = zip(
        itertools.count(1),
        _pair_texts(states, _recurring(states)),
        _pair_texts(controls, set(controls) if few else None),
    )
    lines.extend(f"{n},{xy},{d}" for n, xy, d in rows)
    return ["\n".join(lines) + "\n"], 0


def _cmd_bifurcation(args) -> tuple[Iterable[str], int]:
    lo, hi, n_alpha = args.alpha_range
    cfg = _config(args, Point2(0.1, 0.1))
    res = bifurcation_sweep(
        _params(args),
        _branch(args),
        _channel2(args),
        lo,
        hi,
        n_alpha,
        default_init_grid(args.inits),
        cfg,
        ell1=args.ell1,
        dist1=_DISTS[args.dist1],
        threads=args.threads,
    )
    header = f"{_args_line(args)}\n# escaped_cells: {res.escaped_cells}\nalpha,x\n"
    return itertools.chain([header], _bifurcation_rows(res)), 0


def _bifurcation_rows(res) -> Iterator[str]:
    """One chunk of `alpha,x` rows per alpha with a cell that did not escape."""
    per_alpha = len(res.cells) // len(res.alphas)
    for i, alpha in enumerate(res.alphas):
        prefix = _fmt(alpha) + ","
        cells = res.cells[i * per_alpha : (i + 1) * per_alpha]
        text = "".join(_cell_rows(prefix, xs) for xs in cells if xs)
        if text:
            yield text


def _cell_rows(prefix: str, xs: list[float]) -> str:
    """The rows of one cell's tail x values xs; prefix is the `alpha,` text.

    Tail values are Python floats, so repr is _fmt.  A tail whose last value
    does not recur among the PERIOD_MAX values before it, as in a noisy or
    chaotic tail, is formatted value by value.  A tail of one value, not
    +-0.0, is one row repeated.  Any other tail is formatted once per
    distinct value, unless it holds a zero: 0.0 == -0.0, but their reprs
    differ, and a dict keyed by value would merge them.
    """
    last = xs[-1]
    if last in xs[-PERIOD_MAX - 1 : -1]:
        if last != 0.0 and xs.count(last) == len(xs):
            return (prefix + repr(last) + "\n") * len(xs)
        distinct = set(xs)
        if 0.0 not in distinct:
            return "".join(map({x: prefix + repr(x) + "\n" for x in distinct}.__getitem__, xs))
    return prefix + ("\n" + prefix).join(map(repr, xs)) + "\n"


def _cmd_limitset(args) -> tuple[Iterable[str], int]:
    cfg = _config(args, Point2(args.x0, args.y0))
    pts = limit_set(_params(args), _branch(args), _schedule(args), cfg)
    lines = [_args_line(args), "x,y"]
    # a converged limit set is one point, formatted once and repeated
    lines.extend(_pair_texts(pts, _recurring(pts)))
    return ["\n".join(lines) + "\n"], 0


def _cmd_threshold(args) -> tuple[Iterable[str], int]:
    if args.norm is None:
        v = local_threshold(_params(args), _branch(args), args.alpha2)
    else:
        v = norm_threshold(
            _params(args), _branch(args), args.radius, args.alpha2, _NORMS[args.norm]
        )
    # a threshold is below 1, so where 5 digits round it to 1 print it whole
    text = f"{v:.5g}"
    return [f"alpha_star,{_fmt(v) if text == '1' else text}\n"], 0


def _cmd_explog(args) -> tuple[Iterable[str], int]:
    params, schedule = _params(args), _schedule(args)
    model = build_nu_model(
        params, _branch(args), args.radius, _NORMS[args.norm], schedule.ch1, schedule.ch2
    )
    v = expected_log_nu(model, args.method, seed=_seed(args))
    return [f"e_ln_nu,{_fmt(v)}\n"], 0


def _cmd_minnoise(args) -> tuple[Iterable[str], int]:
    v = min_noise_for_stability(
        _params(args),
        _branch(args),
        args.radius,
        _NORMS[args.norm],
        args.alpha1,
        _DISTS[args.dist1],
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
    rows = verify_mod.run_all(threads=args.threads)
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


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".chaosctl-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
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
    if args.command != "repro":
        return args
    preset = list(PRESETS[args.preset])
    for flag in ("seed", "out", "threads"):
        if getattr(args, flag) is not None:
            preset.append(f"--{flag}={getattr(args, flag)}")
    return parser.parse_args(preset)


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
            _write_atomic(args.out, chunks)
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
