"""Trajectory engine and experiment harness.

Single controlled runs with tail classification, bifurcation sweeps, the
collapse point of a sweep's diagram, limit sets and Monte Carlo convergence
probabilities.  Every experiment decomposes into independent tasks with
pre-assigned noise streams and aggregates results by task index.  Batches
run serially by default; `threads` > 1 opts into a thread pool, and the
output is identical either way.  `concurrent.futures` is imported by the
first batch that starts the pool, so a serial run never loads it.
`bifurcation_sweep` runs the alphas it is given, as rows of cells on the
noise streams of their place in the grid from `first_stream` on, so a grid
swept one row per call gives the cells of one call over the whole grid.
`collapse_alpha` sweeps the rows of `alpha_grid` one call at a time from
the top of the grid down and stops at the first alpha that has not
collapsed.

Every record here is an immutable named tuple.  The outcomes `Converged`,
`Periodic`, `Bounded` and `Escaped` compare equal only to an outcome of
their own kind, and every outcome is true.

One engine, `_run_raw`, serves every experiment.  Its loop is written once,
as a source template, and compiled on first use into at most four private
kernels, one per map (Henon, Lozi) and kind of schedule (a constant pair,
drawn pairs), so that no step tests the map, the schedule or whether to
record; the Lozi kernels split abs(x) on the sign of x, with the same bits.
A kernel reads the coefficients (d * t, 1 - d) of the schedule's realized
control pairs from `control.control_pairs`: step by step, or, when both
channels are constant by `ControlChannel.constant_value`, the rule the
sampler reads too, as the stream's one repeated tuple, held in locals.  The
steps before the record starts and the recorded ones run as two segments of
the same body.  It records no controls; `run_trajectory` reads its controls
after the loop from a fresh stream of the same schedule, cut to the steps
run.  It records raw (x, y) tuples.  `Point2` is only the type of a state
passed in: the start, the target.  A run records all its states or only its
tail: the states of its last min(RECORD_TAIL, steps) steps, or the final
state of a run that stopped before them.  A run under a constant control
pair stops once its state repeats bit for bit; a drawn kernel steps the
cycle once more, fed the same pair, and the rest of the run repeats that
cycle.

The engine's record is one shape, a repeating unit and a count of states:
the record is the unit repeated end to end and cut to the count.  The unit
is the recorded list, with the replayed cycle appended once when the
record began before the cycle exit, or else one turn of the cycle, which
is never expanded.  `_cell` reads a finished cell's tail through it:
nothing for an escaped cell, the final state for a converged one, that is
its limit set, or else the engine's unit.  `Trajectory.points` and a limit
set are the unit expanded, and the engine's own list when nothing repeats.
A sweep cell is only the unit's x values, an `array('d')`, so a sweep
holds 8 bytes a unit value and no float objects; its tail is that unit
repeated to the sweep's `cfg.record_tail` values, which the caller holds.
A caller that sweeps one row at a time, as `chaosctl bifurcation` does,
holds one row's cells.  Monte Carlo trials read only the outcome and
record nothing.

One convergence rule serves the engine and the classifier: a run converges
when its last min(CONV_WINDOW, steps) states are within CONV_TOL of the
target in the max norm.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import islice, repeat
from typing import Callable, NamedTuple, Optional, Union

from .control import (
    ControlChannel,
    NoiseDist,
    Stochastic,
    control_pairs,
    stream_for_trial,
)
from .maps import Branch, MapKind, MapParams, Point2, fixed_point

#: Tail window (points per cell) used when measuring bifurcation collapse.
COLLAPSE_WINDOW = 50
#: Per-alpha x-spread below which a tail counts as collapsed to one point.
#: On the acceptance sweeps (700-step runs) it places the collapse above the
#: local threshold by at most 0.004; tests/test_sim.py checks that bound.
COLLAPSE_TOL = 2.5e-2
#: Consecutive states within CONV_TOL of the target that count as converged;
#: a run shorter than the window converges when all its states are within.
CONV_WINDOW = 50
#: Max-norm distance from the target below which a state counts as reached.
#: It is below PERIOD_TOL / 2, so a tail within it is always period-1.
CONV_TOL = 1e-9
#: States recorded as a run's tail: the last min(RECORD_TAIL, steps).
RECORD_TAIL = 200
#: Max-norm beyond which a state counts as escaped.
ESCAPE_BOUND = 1e8
#: Longest period, and the per-coordinate tolerance, of tail period detection.
PERIOD_MAX = 16
PERIOD_TOL = 1e-6

_WILSON_Z = 1.959963984540054  # two-sided 95%


class InsufficientData(ValueError):
    """Trajectory too short for the requested classification."""


class SimConfig(NamedTuple("SimConfig", [("initial", Point2), ("steps", int), ("seed", int)])):
    """Start, run length and seed of one experiment."""

    __slots__ = ()

    def __new__(cls, initial: Point2, steps: int, seed: int = 0) -> SimConfig:
        if steps < 1:
            raise ValueError(f"steps must be positive, got {steps}")
        return super().__new__(cls, initial, steps, seed)

    @property
    def record_tail(self) -> int:
        """States in the run's tail: min(RECORD_TAIL, steps)."""
        return min(RECORD_TAIL, self.steps)

    @property
    def transient(self) -> int:
        """Steps run before the tail: steps - record_tail."""
        return self.steps - self.record_tail


def _same_kind(self: tuple, other: object) -> bool:
    """Outcome equality: the same kind and equal fields.  Tuple equality
    alone would make Converged(5) equal Escaped(5)."""
    return type(self) is type(other) and tuple.__eq__(self, other)


def _other_kind(self: tuple, other: object) -> bool:
    return not _same_kind(self, other)


class Converged(NamedTuple):
    """The last min(CONV_WINDOW, steps) states to at_step were within CONV_TOL of the target."""

    at_step: int
    __eq__, __ne__ = _same_kind, _other_kind

    def __str__(self) -> str:
        return f"converged@{self.at_step}"


class Periodic(NamedTuple):
    """Its tail repeats within PERIOD_TOL with least period `period`, at most PERIOD_MAX."""

    period: int
    __eq__, __ne__ = _same_kind, _other_kind

    def __str__(self) -> str:
        return f"periodic({self.period})"


class Bounded(NamedTuple):
    """Its tail neither converged nor repeats with a period up to PERIOD_MAX."""

    __eq__, __ne__ = _same_kind, _other_kind

    def __bool__(self) -> bool:
        return True  # an empty tuple is false; an outcome is not

    def __str__(self) -> str:
        return "bounded"


class Escaped(NamedTuple):
    """Its state left the box max(|x|, |y|) <= ESCAPE_BOUND, or was NaN, at step at_step."""

    at_step: int
    __eq__, __ne__ = _same_kind, _other_kind

    def __str__(self) -> str:
        return f"escaped@{self.at_step}"


Outcome = Union[Converged, Periodic, Bounded, Escaped]


class Trajectory(NamedTuple):
    """A simulated orbit with the controls that produced it.

    points is the engine's own record of (x, y) tuples.  With record="all",
    points[0] is the initial state and controls[k] is the pair applied to
    produce points[k+1].  With record="tail", points is the run's tail, the
    states of its last record_tail steps or the final state of a run that
    stopped before them, and controls[k] produced points[k].
    """

    points: list[tuple[float, float]]
    controls: list[tuple[float, float]]
    outcome: Outcome
    steps_run: int


class MonteCarloReport(NamedTuple):
    """Observed convergence frequency with a 95% Wilson interval."""

    trials: int
    converged: int
    fraction: float
    ci_low: float
    ci_high: float


class PointSet(NamedTuple("PointSet", [("points", tuple[Point2, ...])])):
    """Initial states used round-robin: trial k starts at points[k % len]."""

    __slots__ = ()

    def __new__(cls, points: tuple[Point2, ...]) -> PointSet:
        if not points:
            raise ValueError("initial point set must be non-empty")
        return super().__new__(cls, points)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion.

    With k successes in n trials, the bounds are (t -/+ z w) / (n + z^2),
    t = k + z^2/2 and w = sqrt(k (n - k) / n + z^2/4).  The lower one is
    taken as k^2 / (n (t + z w)), its difference of squares worked out, so
    that neither bound cancels: they are exactly 0 at k = 0 and 1 at k = n.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z2 = _WILSON_Z * _WILSON_Z
    top = successes + (
        z2 / 2.0 + _WILSON_Z * math.sqrt(successes * (trials - successes) / trials + z2 / 4.0)
    )
    return successes * successes / (trials * top), top / (trials + z2)


def _classify_points(pts: list[tuple[float, float]], steps_run: int, target: Point2) -> Outcome:
    """Classify a recorded tail, the last <= record_tail states of a run.

    Converged when its last min(CONV_WINDOW, len(pts)) states are within
    CONV_TOL of the target, else Periodic(k) for the least k <= PERIOD_MAX
    that repeats the tail within PERIOD_TOL, else Bounded.
    """
    tx, ty = target.x, target.y
    window = pts[-CONV_WINDOW:]
    if window and all(max(abs(x - tx), abs(y - ty)) < CONV_TOL for x, y in window):
        return Converged(steps_run)
    for k in range(1, min(PERIOD_MAX + 1, len(pts))):
        if all(
            max(abs(pts[i][0] - pts[i - k][0]), abs(pts[i][1] - pts[i - k][1])) < PERIOD_TOL
            for i in range(k, len(pts))
        ):
            return Periodic(k)
    return Bounded()


def classify_tail(traj: Trajectory, target: Point2, cfg: SimConfig) -> Outcome:
    """Classify a finished trajectory from its recorded tail.

    Early-terminated outcomes (Converged / Escaped, detected online) are
    returned as-is; otherwise the run must have taken all cfg.steps steps,
    its transient and its tail.
    """
    if isinstance(traj.outcome, (Converged, Escaped)):
        return traj.outcome
    if traj.steps_run < cfg.steps:
        raise InsufficientData(f"need {cfg.steps} steps, ran {traj.steps_run}")
    return _classify_points(traj.points[-cfg.record_tail :], traj.steps_run, target)


#: The engine loop, one segment of steps lo..hi - 1 that records each state
#: or none.  `_kernel` fills the fields with fixed text: the loop head and
#: Brent's check of the schedule, the map's first component and the record.
#: (x, y) is state n - 1 at the top of the body.  The chained comparisons
#: are abs(x) <= bound and abs(x - tx) < tol for every double, inf
#: included; a NaN state escapes.
_SEGMENT = """\
for {head}:
{brent}    fx = {fx}
    fy = b * x
    x = c1 + g1 * fx
    y = c2 + g2 * fy
{record}    if not (neg_bound <= x <= bound and neg_bound <= y <= bound):
        outcome = Escaped(n)
        break
    if neg_tol < x - tx < tol and neg_tol < y - ty < tol:
        in_tol += 1
        if in_tol >= window:
            outcome = Converged(n)
            break
    else:
        in_tol = 0
"""

#: Brent's check of a constant-pair kernel.  `==` equates 0.0 and -0.0, so
#: the signs of zero are compared too; NaN never compares equal.
_BRENT = """\
    if (
        x == sx
        and y == sy
        and copysign(1.0, x) == copysign(1.0, sx)
        and copysign(1.0, y) == copysign(1.0, sy)
    ):
        period = n - 1 - saved_n
        if period <= tail:
            break
        period = 0
        sx = sy = nan  # the shortest period is too long: stop looking
        save_at = 0
    if n == save_at:
        sx, sy, saved_n = x, y, n - 1
        save_at = 2 * n
"""

#: A kernel: from state n, with in_tol states in the window so far, steps
#: n + 1..split - 1 unrecorded, then, unless the first segment stopped the
#: run, steps split..steps each appended to the record.
_KERNEL = """\
def kernel(a, b, tx, ty, x, y, coefs, steps, split, n, in_tol, tail, window, append):
    bound, tol = ESCAPE_BOUND, CONV_TOL
    neg_bound, neg_tol = -bound, -tol
    copysign, nan = math.copysign, math.nan
{unpack}    sx = sy = nan
    saved_n, save_at = 0, 1
    period = 0
    outcome = None
{quiet}    else:
{recording}    return x, y, n, outcome, period, in_tol
"""


@functools.cache
def _kernel(henon: bool, constant: bool) -> Callable:
    """The engine loop compiled for one map and one kind of schedule.

    A constant-pair kernel holds the coefficients (c1, g1, c2, g2) in
    locals and keeps Brent's check; a drawn kernel reads them per step from
    the iterator `coefs` and has no Brent code.  The Henon map is
    y + 1.0 - a * x * x.  The Lozi map y + 1.0 - a * abs(x) is split on
    the sign of x, which gives the same bits without a call: for x < 0,
    a * (-x) is exactly -(a * x) and p - (-q) is exactly p + q, so it is
    y + 1.0 + a * x.  At x = -0.0 the two forms give p - 0.0 and p + 0.0
    for p = y + 1.0, which differ only if p is -0.0, and a sum with 1.0
    never is.  A NaN x gives NaN in both, and a NaN state escapes at once.
    Only these fixed choices enter the source; every value is an argument.
    The source is compiled under a filename that names the kernel, and
    registered with linecache, so tracebacks show its lines.
    """
    name = f"{'henon' if henon else 'lozi'}-{'constant' if constant else 'drawn'}"

    def segment(lo: str, hi: str, record: str, indent: str) -> str:
        steps = f"range({lo}, {hi})"
        text = _SEGMENT.format(
            head=f"n in {steps}" if constant else f"n, (c1, g1, c2, g2) in zip({steps}, coefs)",
            brent=_BRENT if constant else "",
            fx="y + 1.0 - a * x * x" if henon
            else "y + 1.0 - a * x if x >= 0.0 else y + 1.0 + a * x",
            record=record,
        )
        return "".join(indent + line for line in text.splitlines(True))

    src = _KERNEL.format(
        unpack="    c1, g1, c2, g2 = coefs\n" if constant else "",
        quiet=segment("n + 1", "split", "", "    "),
        recording=segment("split", "steps + 1", "    append((x, y))\n", "        "),
    )
    import linecache  # loaded by the first compile, not at startup

    filename = f"<chaosctl.sim kernel {name}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(src, filename, "exec"), globals(), namespace)
    return namespace["kernel"]


def _run_raw(
    params: MapParams,
    target: Point2,
    schedule: Stochastic,
    cfg: SimConfig,
    start: Point2,
    rng_s: int,
    first: int,
) -> tuple[Optional[Outcome], int, list[tuple[float, float]], int]:
    """Engine core: (outcome or None, steps run, unit, count) of a run from start.

    The run's record is `_repeat(unit, count)`, count states.  A run that
    left the loop by no cycle exit gives its recorded list with its length.
    A cycle exit after the record began appends the replayed cycle to the
    record, once, and gives that list.  Otherwise unit is one turn of the
    replayed cycle, turned to start at the first state it records.

    The engine loop is written once, as the source template `_SEGMENT`, and
    compiled on first use into one of four kernels (`_kernel`): Henon or
    Lozi, under a constant control pair or drawn pairs, so no step tests
    the map, the schedule or whether to record.  Each step reads the
    coefficients (d1 * tx, 1.0 - d1, d2 * ty, 1.0 - d2) of its realized
    pair, from `control_pairs(schedule, rng_s, target, steps)`, which draws
    no pair past the run's last step, or, when both channels hold a
    constant value, from locals, and steps x' = c1 + g1 * F1,
    y' = c2 + g2 * F2: the operations of vmtoc_step in its order (the Lozi
    kernels split abs on the sign of x, with the same bits).  The loop
    keeps state in scalars and records raw (x, y) tuples of the states from
    step `first` on, with start as state 0: first = 0 records the whole
    run, first = cfg.transient + 1 its tail, first = cfg.steps + 1 nothing.
    It runs as two segments of one body, the steps before first with no
    record and the rest recording each state.  A run that stops before step
    first records its final state.  The outcome is Escaped, or Converged
    once min(CONV_WINDOW, steps) consecutive states are within CONV_TOL;
    None means the tail is still to be classified.  A run shorter than
    CONV_WINDOW converges only at its last step, when every state after the
    start is within CONV_TOL: that is its whole tail within CONV_TOL, the
    classifier's rule.

    Under a constant control pair the next state is a pure function of the
    current one, so once a state repeats bit for bit the rest of the run is
    known.  Brent's cycle detection (Brent 1980, BIT 20:176-184) keeps one
    saved state, moved to the current one at steps 0, 1, 3, 7, ...; a cycle
    whose period fits in record_tail ends the loop.  The drawn kernel, fed
    `repeat(coefs)`, steps the cycle again from the current state, since it
    may precede the recorded window, and counts the window on for at most
    period + window steps; the remaining steps repeat that cycle.
    """
    steps, tail = cfg.steps, cfg.record_tail
    window = min(CONV_WINDOW, steps)

    # Constant channels realize a constant pair; skipping the draws is
    # unobservable because each run owns its stream exclusively.
    constant = schedule.ch1.constant_value is not None and schedule.ch2.constant_value is not None
    coefs = control_pairs(schedule, rng_s, target, steps)
    if constant:
        coefs = next(coefs)  # with no channel drawn the stream repeats one tuple
    rec = [(start.x, start.y)] if first == 0 else []
    split = min(max(first, 1), steps + 1)
    henon = params.kind is MapKind.HENON
    x, y, n, outcome, period, in_tol = _kernel(henon, constant)(
        params.a, params.b, target.x, target.y, start.x, start.y,
        coefs, steps, split, 0, 0, tail, window, rec.append,
    )

    if outcome is not None and n < first:
        rec.append((x, y))
    if not period:
        return outcome, n, rec, len(rec)
    # States done+1..done+period form the cycle; state m > done is
    # cycle[(m - done - 1) % period].  Within period + window more steps
    # the in_tol count either reaches window or never will; a run that
    # ends or converges sooner records only the states to n.
    done = n - 1
    cycle = []
    _, _, _, outcome, _, _ = _kernel(henon, False)(
        params.a, params.b, target.x, target.y, x, y, repeat(coefs),
        min(steps, done + period + window), done + 1, done, in_tol, tail, window,
        cycle.append,
    )
    n = steps if outcome is None else outcome.at_step
    # a run that converges before step first records its final state;
    # states fill..n are the cycle turned to start at state fill, repeated
    fill = min(max(done + 1, first), n)
    turn = (fill - done - 1) % period
    unit, count = cycle[turn:period] + cycle[:turn], n + 1 - fill
    if rec:  # the record began before the cycle exit: it takes the replay
        rec += _repeat(unit, count)
        return outcome, n, rec, len(rec)
    return outcome, n, unit, count


def _repeat(unit, count: int):
    """unit repeated end to end and cut to its first count items, for a list
    or an array; unit itself when count is its length."""
    if count == len(unit):
        return unit
    whole, part = divmod(count, len(unit))
    return unit * whole + unit[:part]


def run_trajectory(
    params: MapParams,
    branch: Branch,
    schedule: Stochastic,
    cfg: SimConfig,
    *,
    record: str = "all",
) -> Trajectory:
    """Iterate the controlled map from cfg.initial for cfg.steps steps.

    Stops early on convergence (the last min(CONV_WINDOW, steps) states
    within CONV_TOL of the target in the max norm) or escape (max-norm
    beyond ESCAPE_BOUND); otherwise classifies the last record_tail states.
    The points are the engine's (x, y) tuples, in its own list unless a
    cycle found before the record began is expanded.  Bit-deterministic for
    a fixed seed; uses trial stream 0 of cfg.seed.
    """
    if record not in ("all", "tail"):
        raise ValueError(f"record must be 'all' or 'tail', got {record!r}")
    target = fixed_point(params, branch)
    s = stream_for_trial(cfg.seed, 0).s
    first = 0 if record == "all" else cfg.transient + 1
    outcome, n, unit, count = _run_raw(params, target, schedule, cfg, cfg.initial, s, first)
    points = _repeat(unit, count)
    if outcome is None:
        outcome = _classify_points(points[-cfg.record_tail :], n, target)
    # points holds states start..n; keep the pairs that produced states max(start, 1)..n
    start = n + 1 - count
    return Trajectory(
        points=points,
        controls=list(islice(control_pairs(schedule, s, steps=n), max(start - 1, 0), n)),
        outcome=outcome,
        steps_run=n,
    )


def _cell(
    params: MapParams,
    target: Point2,
    schedule: Stochastic,
    cfg: SimConfig,
    init: Point2,
    stream: int,
) -> Optional[list[tuple[float, float]]]:
    """The repeating unit of the (x, y) tail of one finished cell started at
    init, or None if it escaped: its tail is `_repeat(unit, cfg.record_tail)`."""
    rng_s = stream_for_trial(cfg.seed, stream).s
    outcome, _, unit, count = _run_raw(
        params, target, schedule, cfg, init, rng_s, cfg.transient + 1
    )
    if isinstance(outcome, Escaped):
        return None
    if isinstance(outcome, Converged):
        return [unit[(count - 1) % len(unit)]]
    return unit


def _parallel_map(fn: Callable[[int], object], n_items: int, threads: Optional[int]) -> list:
    """fn(0), ..., fn(n_items - 1); serial unless threads > 1 is asked for."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if n_items <= 1 or threads is None or threads == 1:
        return [fn(i) for i in range(n_items)]
    from concurrent.futures import ThreadPoolExecutor  # loaded by the first pool only

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_items)))


class SweepResult(NamedTuple):
    """Bifurcation sweep output.

    cells holds one cell per run, ordered by (alpha index, initial index):
    cells[i * n_inits + j] started at initial state j under alphas[i].  A
    cell is the x values of its tail's repeating unit, an `array('d')`, or
    None for a cell that escaped; its tail is the unit repeated end to end
    and cut to the sweep's `cfg.record_tail` values.  A cell costs 8 bytes a
    unit value and about 80 bytes of header: about 1.7 KB for a noisy
    200-value tail, 0.09 KB for a converged cell.  A result holds the cells
    of the alphas it was swept over, so a sweep run one alpha per call holds
    one row of them.
    """

    alphas: tuple[float, ...]
    cells: list[Optional[array]]


def default_init_grid(n: int = 20) -> list[Point2]:
    """Initial-state grid with x in [0.1, 0.8] paired to y in [0.1, 0.2]."""
    if n < 1:
        raise ValueError("need at least one initial state")
    if n == 1:
        return [Point2(0.1, 0.1)]
    return [
        Point2(0.1 + 0.7 * j / (n - 1), 0.1 + 0.1 * j / (n - 1)) for j in range(n)
    ]


def alpha_grid(alpha_lo: float, alpha_hi: float, n_alpha: int) -> tuple[float, ...]:
    """n_alpha evenly spaced channel-1 intensities from alpha_lo to alpha_hi."""
    if not 0.0 <= alpha_lo < alpha_hi < 1.0:
        raise ValueError(f"need 0 <= lo < hi < 1, got {alpha_lo}, {alpha_hi}")
    if n_alpha < 2:
        raise ValueError(f"need at least two alpha values, got {n_alpha}")
    # the top is alpha_hi itself: lo + (hi - lo) * i / (n - 1) can round above it
    span = alpha_hi - alpha_lo
    return tuple(alpha_lo + span * i / (n_alpha - 1) for i in range(n_alpha - 1)) + (alpha_hi,)


def bifurcation_sweep(
    params: MapParams,
    branch: Branch,
    ch2: ControlChannel,
    alphas: tuple[float, ...],
    inits: list[Point2],
    cfg: SimConfig,
    ell1: float = 0.0,
    dist1: NoiseDist = NoiseDist.BERNOULLI_PM1,
    threads: Optional[int] = None,
    first_stream: int = 0,
) -> SweepResult:
    """Tail states against the channel-1 control intensity, for the given alphas.

    For each alpha and each initial state, runs one trajectory and keeps
    the x values of its tail's repeating unit as one cell of doubles.  Cell
    j of row r starts at inits[j] under alphas[r] on noise stream
    first_stream + r * len(inits) + j, so the rows of an `alpha_grid`
    swept one call at a time, row r with first_stream = r * len(inits),
    give the cells of the one call over the whole grid.  A cell that converged early
    keeps its final state as its unit -- that is its limit set; an escaped
    cell is None.
    """
    if not inits:
        raise ValueError("need at least one initial state")
    alphas = tuple(alphas)
    target = fixed_point(params, branch)
    n_inits = len(inits)

    def run_cell(k: int) -> Optional[array]:
        i, j = divmod(k, n_inits)
        schedule = Stochastic(ControlChannel(alphas[i], ell1, dist1), ch2)
        unit = _cell(params, target, schedule, cfg, inits[j], first_stream + k)
        # a list, not an iterator, sizes the array exactly
        return None if unit is None else array("d", [x for x, _ in unit])

    return SweepResult(alphas, _parallel_map(run_cell, len(alphas) * n_inits, threads))


def collapse_alpha(
    params: MapParams,
    branch: Branch,
    ch2: ControlChannel,
    alpha_lo: float,
    alpha_hi: float,
    n_alpha: int,
    inits: list[Point2],
    cfg: SimConfig,
    ell1: float = 0.0,
    dist1: NoiseDist = NoiseDist.BERNOULLI_PM1,
    threads: Optional[int] = None,
) -> Optional[float]:
    """Smallest alpha of `alpha_grid(alpha_lo, alpha_hi, n_alpha)` from which
    every larger alpha has a single-point tail, or None when the top alpha
    has not collapsed.

    An alpha has collapsed when the x-spread over the last COLLAPSE_WINDOW
    tail points of its cells that did not escape stays below COLLAPSE_TOL;
    an alpha whose cells all escaped has not.  Each alpha's cells are one
    row of `bifurcation_sweep` on the streams of the whole grid's sweep,
    but the search walks the grid from the top down and stops at the first
    alpha that has not collapsed, so the rows below it never run.
    """
    alphas = alpha_grid(alpha_lo, alpha_hi, n_alpha)
    found = None
    for i in reversed(range(n_alpha)):
        row = bifurcation_sweep(
            params, branch, ch2, alphas[i : i + 1], inits, cfg, ell1, dist1, threads,
            first_stream=i * len(inits),
        )
        tails = [_repeat(unit, cfg.record_tail)[-COLLAPSE_WINDOW:]
                 for unit in row.cells if unit is not None]
        if not tails or max(map(max, tails)) - min(map(min, tails)) >= COLLAPSE_TOL:
            break
        found = alphas[i]
    return found


def limit_set(
    params: MapParams,
    branch: Branch,
    schedule: Stochastic,
    cfg: SimConfig,
) -> list[tuple[float, float]]:
    """Post-transient (x, y) tail of one run from cfg.initial on trial stream 0.

    A converged run gives its limit point record_tail times; an escaped run
    gives nothing.
    """
    target = fixed_point(params, branch)
    unit = _cell(params, target, schedule, cfg, cfg.initial, 0)
    return [] if unit is None else _repeat(unit, cfg.record_tail)


def mc_convergence(
    params: MapParams,
    branch: Branch,
    schedule: Stochastic,
    starts: PointSet,
    trials: int,
    cfg: SimConfig,
    threads: Optional[int] = None,
) -> MonteCarloReport:
    """Fraction of independent trials that converge to the equilibrium.

    Trial k starts at starts.points[k % len(starts.points)] on noise stream
    k.  A trial whose state overflows to inf or NaN counts as escaped.
    Deterministic for a fixed seed and trial count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    target = fixed_point(params, branch)

    def run_one(k: int) -> bool:
        init = starts.points[k % len(starts.points)]
        rng_s = stream_for_trial(cfg.seed, k).s
        # only the outcome is read: a first step past the run records nothing
        outcome = _run_raw(params, target, schedule, cfg, init, rng_s, cfg.steps + 1)[0]
        return isinstance(outcome, Converged)

    flags = _parallel_map(run_one, trials, threads)
    converged = sum(flags)
    lo, hi = wilson_interval(converged, trials)
    return MonteCarloReport(trials, converged, converged / trials, lo, hi)
