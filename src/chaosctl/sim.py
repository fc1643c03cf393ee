"""Trajectory engine and experiment harness.

Single controlled runs with tail classification, bifurcation sweeps, the
collapse point of a sweep's diagram, limit sets and Monte Carlo convergence
probabilities.  Every experiment decomposes into independent tasks with
pre-assigned noise streams and aggregates results by task index.  Batches
run serially by default; `threads` > 1 opts into a thread pool, and the
output is identical either way.  `collapse_alpha` runs the cells of
`bifurcation_sweep` one alpha at a time from the top of the grid down and
stops at the first alpha that has not collapsed.

One engine loop, `_run_raw`, serves every experiment.  It reads the
coefficients (d * t, 1 - d) of the schedule's realized control pairs from
one stream, with no per-step branch: `repeat` of one tuple when both
channels are constant by `ControlChannel.constant_value`, the rule the
sampler reads too, and `control.control_pairs` otherwise.  It records no
controls; `run_trajectory` reads its controls after the loop from a fresh
stream of the same schedule, cut to the steps run.  It records raw (x, y)
tuples, and that record is every run's result: `Trajectory.points`, a
sweep cell's tail and a limit set.  `Point2` is only the type of a state
passed in: the start, the target.  A run records all its states or only
its tail: the states of its last min(RECORD_TAIL, steps) steps, or the
final state of a run that stopped before them.  Sweep cells, limit sets
and Monte Carlo trials read the tail and the engine's outcome.  A run
under a constant control pair stops once its state repeats bit for bit and
replays the cycle, with identical output.

One convergence rule serves the engine and the classifier: a run converges
when its last min(CONV_WINDOW, steps) states are within CONV_TOL of the
target in the max norm.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from typing import Callable, Optional, Union

from .control import (
    ControlChannel,
    NoiseDist,
    Stochastic,
    _coefficients,
    control_pairs,
    next_rand,
    stream_for_trial,
    uniform_m1p1,
    vmtoc_step,
)
from .maps import Branch, MapKind, MapParams, Point2, fixed_point

#: Tail window (points per cell) used when measuring bifurcation collapse.
COLLAPSE_WINDOW = 50
#: Per-alpha x-spread below which a tail counts as collapsed to one point.
#: Near the collapse the slowest transients decay by roughly x0.4 per 0.001
#: of control intensity (at 700-step runs), so this tolerance locates the
#: collapse within about +0.004 of the true threshold.
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
_first = itemgetter(0)  # x of an (x, y) state, taken in C


class InsufficientData(ValueError):
    """Trajectory too short for the requested classification."""


@dataclass(frozen=True)
class SimConfig:
    """Start, run length and seed of one experiment."""

    initial: Point2
    steps: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")

    @property
    def record_tail(self) -> int:
        """States in the run's tail: min(RECORD_TAIL, steps)."""
        return min(RECORD_TAIL, self.steps)

    @property
    def transient(self) -> int:
        """Steps run before the tail: steps - record_tail."""
        return self.steps - self.record_tail


@dataclass(frozen=True)
class Converged:
    at_step: int

    def __str__(self) -> str:
        return f"converged@{self.at_step}"


@dataclass(frozen=True)
class Periodic:
    period: int

    def __str__(self) -> str:
        return f"periodic({self.period})"


@dataclass(frozen=True)
class Bounded:
    def __str__(self) -> str:
        return "bounded"


@dataclass(frozen=True)
class Escaped:
    at_step: int

    def __str__(self) -> str:
        return f"escaped@{self.at_step}"


Outcome = Union[Converged, Periodic, Bounded, Escaped]


@dataclass
class Trajectory:
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


@dataclass(frozen=True)
class MonteCarloReport:
    """Observed convergence frequency with a 95% Wilson interval."""

    trials: int
    converged: int
    fraction: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class PointSet:
    """Initial states used round-robin: trial k starts at points[k % len]."""

    points: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("initial point set must be non-empty")


@dataclass(frozen=True)
class BoxSampler:
    """Initial states drawn uniformly from a box, two draws per trial."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self) -> None:
        if not (self.x_lo <= self.x_hi and self.y_lo <= self.y_hi):
            raise ValueError("box corners must be ordered")


InitSampler = Union[PointSet, BoxSampler]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


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


def _run_raw(
    params: MapParams,
    target: Point2,
    schedule: Stochastic,
    cfg: SimConfig,
    start: Point2,
    rng_s: int,
    first: int,
) -> tuple[list[tuple[float, float]], Optional[Outcome], int]:
    """Engine core: (states, outcome or None, steps run) of a run from start.

    One loop reads the coefficients (d1 * tx, 1.0 - d1, d2 * ty, 1.0 - d2)
    of the realized pairs, `control_pairs(schedule, rng_s, target, steps)`,
    which draws no pair past the run's last step, or, when both channels
    hold a constant value, `repeat` of that pair's, and
    steps x' = c1 + g1 * F1, y' = c2 + g2 * F2: the operations of
    vmtoc_step in its order.  It keeps state in scalars and records raw
    (x, y) tuples of the states from step `first` on, with start as state
    0: first = 0 records the whole run, first = cfg.transient + 1 its tail.
    A run that stops before step first records its final state.  The
    outcome is Escaped, or Converged once min(CONV_WINDOW, steps)
    consecutive states are within CONV_TOL; None means the tail is still to
    be classified.  A run shorter than CONV_WINDOW converges only at its
    last step, when every state after the start is within CONV_TOL: that is
    its whole tail within CONV_TOL, the classifier's rule.

    Under a constant control pair the next state is a pure function of the
    current one, so once a state repeats bit for bit the rest of the run is
    known.  Brent's cycle detection (Brent 1980, BIT 20:176-184) keeps one
    saved state, moved to the current one at steps 0, 1, 3, 7, ...; a cycle
    whose period fits in record_tail ends the loop.  The cycle is stepped
    again from the current state by vmtoc_step, since it may precede the
    recorded window, and the remaining steps are replayed from it.
    """
    henon = params.kind is MapKind.HENON
    a, b = params.a, params.b
    tx, ty = target.x, target.y
    bound, tol = ESCAPE_BOUND, CONV_TOL
    neg_bound, neg_tol = -bound, -tol
    x, y = start.x, start.y
    steps, tail = cfg.steps, cfg.record_tail
    window = min(CONV_WINDOW, steps)

    # Constant channels realize a constant pair; skipping the draws is
    # unobservable because each run owns its stream exclusively.
    d1, d2 = schedule.ch1.constant_value, schedule.ch2.constant_value
    constant = d1 is not None and d2 is not None

    rec = [(x, y)] if first == 0 else []

    # Brent's saved state and its step; NaN never compares equal.
    sx = sy = math.nan
    saved_n = 0
    save_at = 1
    period = 0
    outcome: Optional[Outcome] = None
    in_tol = 0
    n = 0
    if constant:
        coefs = repeat(_coefficients(d1, d2, target))
    else:
        coefs = control_pairs(schedule, rng_s, target, steps)
    for n, (c1, g1, c2, g2) in zip(range(1, steps + 1), coefs):
        if constant:
            # (x, y) is state n - 1.  `==` equates 0.0 and -0.0, so the
            # signs of zero are compared too.
            if (
                x == sx
                and y == sy
                and math.copysign(1.0, x) == math.copysign(1.0, sx)
                and math.copysign(1.0, y) == math.copysign(1.0, sy)
            ):
                period = n - 1 - saved_n
                if period <= tail:
                    break
                period = 0
                sx = sy = math.nan  # the shortest period is too long: stop looking
                save_at = 0
            if n == save_at:
                sx, sy, saved_n = x, y, n - 1
                save_at = 2 * n
        if henon:
            fx = y + 1.0 - a * x * x
        else:
            fx = y + 1.0 - a * abs(x)
        fy = b * x
        x = c1 + g1 * fx
        y = c2 + g2 * fy
        if n >= first:
            rec.append((x, y))
        # The chained comparisons are abs(x) <= bound and abs(x - tx) <
        # CONV_TOL for every double, inf included; a NaN state escapes.
        if not (neg_bound <= x <= bound and neg_bound <= y <= bound):
            outcome = Escaped(n)
            break
        if neg_tol < x - tx < tol and neg_tol < y - ty < tol:
            in_tol += 1
            if in_tol >= window:
                outcome = Converged(n)
                break
        else:
            in_tol = 0

    if outcome is not None and n < first:
        rec.append((x, y))
    if period:
        # States done+1..done+period form the cycle; state m > done is
        # cycle[(m - done - 1) % period].  Within period + window more
        # steps the in_tol count either reaches window or never will.
        done = n - 1
        p = Point2(x, y)
        cycle = []
        for _ in range(period):
            p = vmtoc_step(params, target, d1, d2, p)
            cycle.append((p.x, p.y))
        n = steps
        for m in range(done + 1, min(n, done + period + window) + 1):
            cx, cy = cycle[(m - done - 1) % period]
            if neg_tol < cx - tx < tol and neg_tol < cy - ty < tol:
                in_tol += 1
                if in_tol >= window:
                    outcome = Converged(m)
                    n = m
                    break
            else:
                in_tol = 0
        # a run that converges before step first records its final state;
        # states fill..n are the cycle turned to start at state fill, repeated
        fill = min(max(done + 1, first), n)
        turn = (fill - done - 1) % period
        turned, count = cycle[turn:] + cycle[:turn], n + 1 - fill
        rec.extend(turned * (count // period) + turned[: count % period])
    return rec, outcome, n


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
    The points are the engine's (x, y) record itself.  Bit-deterministic for
    a fixed seed; uses trial stream 0 of cfg.seed.
    """
    if record not in ("all", "tail"):
        raise ValueError(f"record must be 'all' or 'tail', got {record!r}")
    target = fixed_point(params, branch)
    s = stream_for_trial(cfg.seed, 0).s
    first = 0 if record == "all" else cfg.transient + 1
    rec, outcome, n = _run_raw(params, target, schedule, cfg, cfg.initial, s, first)
    if outcome is None:
        outcome = _classify_points(rec[-cfg.record_tail :], n, target)
    # rec holds states start..n; keep the pairs that produced states max(start, 1)..n
    start = n + 1 - len(rec)
    return Trajectory(
        points=rec,
        controls=list(islice(control_pairs(schedule, s, steps=n), max(start - 1, 0), n)),
        outcome=outcome,
        steps_run=n,
    )


def _cell_tail(
    params: MapParams,
    target: Point2,
    schedule: Stochastic,
    cfg: SimConfig,
    init: Point2,
    stream: int,
) -> Optional[list[tuple[float, float]]]:
    """Recorded (x, y) tail of one finished cell started at init, or None if it escaped.

    A converged cell repeats its final state record_tail times: that is its
    limit set.
    """
    rng_s = stream_for_trial(cfg.seed, stream).s
    rec, outcome, _ = _run_raw(params, target, schedule, cfg, init, rng_s, cfg.transient + 1)
    if isinstance(outcome, Escaped):
        return None
    if isinstance(outcome, Converged):
        return [rec[-1]] * cfg.record_tail
    return rec


def _parallel_map(fn: Callable[[int], object], n_items: int, threads: Optional[int]) -> list:
    """fn(0), ..., fn(n_items - 1); serial unless threads > 1 is asked for."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if n_items <= 1 or threads is None or threads == 1:
        return [fn(i) for i in range(n_items)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_items)))


@dataclass
class SweepResult:
    """Bifurcation sweep output.

    cells holds one list of tail x values per cell, or None for a cell that
    escaped, ordered by (alpha index, initial index); cells[i * n_inits + j]
    started at initial state j under alphas[i].
    """

    alphas: tuple[float, ...]
    cells: list[Optional[list[float]]]
    escaped_cells: int


def default_init_grid(n: int = 20) -> list[Point2]:
    """Initial-state grid with x in [0.1, 0.8] paired to y in [0.1, 0.2]."""
    if n < 1:
        raise ValueError("need at least one initial state")
    if n == 1:
        return [Point2(0.1, 0.1)]
    return [
        Point2(0.1 + 0.7 * j / (n - 1), 0.1 + 0.1 * j / (n - 1)) for j in range(n)
    ]


def _alpha_grid(alpha_lo: float, alpha_hi: float, n_alpha: int) -> tuple[float, ...]:
    """n_alpha evenly spaced channel-1 intensities from alpha_lo to alpha_hi."""
    if not 0.0 <= alpha_lo < alpha_hi < 1.0:
        raise ValueError(f"need 0 <= lo < hi < 1, got {alpha_lo}, {alpha_hi}")
    if n_alpha < 2:
        raise ValueError(f"need at least two alpha values, got {n_alpha}")
    return tuple(
        alpha_lo + (alpha_hi - alpha_lo) * i / (n_alpha - 1) for i in range(n_alpha)
    )


def _sweep_cell(
    params: MapParams,
    branch: Branch,
    ch2: ControlChannel,
    alphas: tuple[float, ...],
    inits: list[Point2],
    cfg: SimConfig,
    ell1: float,
    dist1: NoiseDist,
) -> Callable[[int], Optional[list[float]]]:
    """The cell runner of a sweep: cell k = i * len(inits) + j starts at
    inits[j] under alphas[i] on noise stream k and gives its tail x values,
    or None if it escaped."""
    if not inits:
        raise ValueError("need at least one initial state")
    target = fixed_point(params, branch)
    n_inits = len(inits)

    def run_cell(k: int) -> Optional[list[float]]:
        i, j = divmod(k, n_inits)
        schedule = Stochastic(ControlChannel(alphas[i], ell1, dist1), ch2)
        pts = _cell_tail(params, target, schedule, cfg, inits[j], k)
        return None if pts is None else list(map(_first, pts))

    return run_cell


def bifurcation_sweep(
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
) -> SweepResult:
    """Tail states against the channel-1 control intensity.

    For each of n_alpha evenly spaced alphas and each initial state, runs one
    trajectory (cell stream = alpha index * len(inits) + initial index) and
    keeps x of its record_tail post-transient states.  Cells that converged
    early keep their final state repeatedly -- that is their limit set;
    escaped cells keep nothing and are counted.
    """
    alphas = _alpha_grid(alpha_lo, alpha_hi, n_alpha)
    run_cell = _sweep_cell(params, branch, ch2, alphas, inits, cfg, ell1, dist1)
    cells = _parallel_map(run_cell, n_alpha * len(inits), threads)
    return SweepResult(alphas, cells, sum(xs is None for xs in cells))


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
    """Smallest alpha of the sweep grid from which every larger alpha has a
    single-point tail, or None when the top alpha has not collapsed.

    An alpha has collapsed when the x-spread over the last COLLAPSE_WINDOW
    tail points of its cells that did not escape stays below COLLAPSE_TOL;
    an alpha whose cells all escaped has not.  The grid and every cell are
    those of `bifurcation_sweep` with the same arguments, but the search
    walks the grid from the top down and stops at the first alpha that has
    not collapsed, so the cells below it never run.
    """
    alphas = _alpha_grid(alpha_lo, alpha_hi, n_alpha)
    run_cell = _sweep_cell(params, branch, ch2, alphas, inits, cfg, ell1, dist1)
    n_inits = len(inits)
    found = None
    for i in reversed(range(n_alpha)):
        first = i * n_inits
        tails = [
            xs[-COLLAPSE_WINDOW:]
            for xs in _parallel_map(lambda j: run_cell(first + j), n_inits, threads)
            if xs is not None
        ]
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
    return _cell_tail(params, target, schedule, cfg, cfg.initial, 0) or []


def mc_convergence(
    params: MapParams,
    branch: Branch,
    schedule: Stochastic,
    init_sampler: InitSampler,
    trials: int,
    cfg: SimConfig,
    threads: Optional[int] = None,
) -> MonteCarloReport:
    """Fraction of independent trials that converge to the equilibrium.

    Trial k uses noise stream k; with a BoxSampler the trial's initial state
    consumes the first two uniform draws of its own stream.  A trial whose
    state overflows to inf or NaN counts as escaped.  Deterministic for a fixed
    seed and trial count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    target = fixed_point(params, branch)

    def run_one(k: int) -> bool:
        rng = stream_for_trial(cfg.seed, k)
        if isinstance(init_sampler, PointSet):
            init = init_sampler.points[k % len(init_sampler.points)]
        else:
            rng, z1 = next_rand(rng)
            rng, z2 = next_rand(rng)
            bx = init_sampler
            init = Point2(
                bx.x_lo + (uniform_m1p1(z1) + 1.0) * 0.5 * (bx.x_hi - bx.x_lo),
                bx.y_lo + (uniform_m1p1(z2) + 1.0) * 0.5 * (bx.y_hi - bx.y_lo),
            )
        _, outcome, _ = _run_raw(params, target, schedule, cfg, init, rng.s, cfg.transient + 1)
        return isinstance(outcome, Converged)

    flags = _parallel_map(run_one, trials, threads)
    converged = sum(flags)
    lo, hi = wilson_interval(converged, trials)
    return MonteCarloReport(trials, converged, converged / trials, lo, hi)
