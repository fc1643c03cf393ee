import ast
import contextlib
import inspect
import io
import math
import tracemalloc
from itertools import accumulate, islice

import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from chaosctl import (
    Bounded,
    Branch,
    Constant,
    ControlChannel,
    Converged,
    Escaped,
    InsufficientData,
    NoiseDist,
    NormKind,
    Periodic,
    Point2,
    PointSet,
    SimConfig,
    Stochastic,
    Trajectory,
    alpha_grid,
    bifurcation_sweep,
    bounded_noise_safe,
    build_nu_model,
    classify_tail,
    collapse_alpha,
    controlled_lipschitz,
    default_init_grid,
    expected_log_nu,
    fixed_point,
    henon,
    induced_norm,
    limit_set,
    local_threshold,
    lozi,
    map_step,
    mc_convergence,
    next_rand,
    norm_threshold,
    run_trajectory,
    stream_for_trial,
    vec_norm,
    vmtoc_step,
    wilson_interval,
)
from chaosctl import cli, sim, verify
from chaosctl.control import control_at_step, sample_noise, uniform_m1p1
from chaosctl.sim import CONV_TOL, CONV_WINDOW, ESCAPE_BOUND, _classify_points
from chaosctl.stability import NuModel, log_nu_draws, mc_log_nu

PLUS = Branch.PLUS


def _diameter(points):
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return max(max(xs) - min(xs), max(ys) - min(ys))


# --- single trajectories ------------------------------------------------------

def test_constant_control_converges(henon_std):
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=2000, seed=0)
    traj = run_trajectory(henon_std, PLUS, Constant(0.6, 0.0), cfg)
    assert isinstance(traj.outcome, Converged)
    fx, fy = traj.points[-1]
    assert fx == pytest.approx(0.6314, abs=1e-4)
    assert max(abs(fx - 0.631354), abs(fy - 0.189406)) < 1e-6


def test_trajectory_matches_direct_iteration(henon_std):
    # oracle: re-iterate the controlled map by hand, bit for bit
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=2000, seed=0)
    traj = run_trajectory(henon_std, PLUS, Constant(0.6, 0.0), cfg)
    star = fixed_point(henon_std, PLUS)
    x, y = 0.3, 0.1
    for q in traj.points[1:]:
        fx = y + 1.0 - 1.4 * x * x
        fy = 0.3 * x
        x = 0.6 * star.x + 0.4 * fx
        y = 0.0 * star.y + 1.0 * fy
        assert q == (x, y)


def test_two_cycle_without_noise(henon_std):
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=2000, seed=0)
    sched = Stochastic(ControlChannel(0.44, 0.0), ControlChannel(0.0))
    traj = run_trajectory(henon_std, PLUS, sched, cfg, record="tail")
    assert traj.outcome == Periodic(2)


def test_lozi_noise_stabilizes_far_start(lozi_std):
    # the same mean intensity leaves a two-cycle without noise
    cfg = SimConfig(initial=Point2(-10.0, -15.0), steps=10_000, seed=0)
    clean = run_trajectory(
        lozi_std, PLUS, Stochastic(ControlChannel(0.4, 0.0), ControlChannel(0.0)),
        cfg, record="tail",
    )
    assert clean.outcome == Periodic(2)
    noisy = run_trajectory(
        lozi_std, PLUS, Stochastic(ControlChannel(0.4, 0.15), ControlChannel(0.0)),
        cfg, record="tail",
    )
    assert isinstance(noisy.outcome, Converged)


def test_uncontrolled_henon_is_bounded(henon_std):
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=2000, seed=0)
    traj = run_trajectory(henon_std, PLUS, Constant(0.0, 0.0), cfg, record="tail")
    assert traj.outcome == Bounded()


def test_trajectory_points_are_the_engine_record(henon_std, monkeypatch):
    # run_trajectory hands out _run_raw's list of (x, y) tuples, not a copy
    records, run_raw = [], sim._run_raw

    def spy(*args):
        out = run_raw(*args)
        records.append(out[2])  # the unit
        return out

    monkeypatch.setattr(sim, "_run_raw", spy)
    sched = Stochastic(ControlChannel(0.44, 0.3), ControlChannel(0.0))
    for record in ("all", "tail"):
        cfg = SimConfig(initial=Point2(0.3, 0.1), steps=700, seed=0)
        traj = run_trajectory(henon_std, PLUS, sched, cfg, record=record)
        assert traj.points is records[-1]
        assert all(type(p) is tuple for p in traj.points)


def test_sim_imports_nothing_from_stability():
    # sim depends on maps and control only
    tree = ast.parse(inspect.getsource(sim))
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert not {m for m in modules if m and m.split(".")[-1] == "stability"}


def test_escape_detected_and_terminal(henon_std):
    cfg = SimConfig(initial=Point2(10.0, 0.0), steps=2000, seed=0)
    traj = run_trajectory(henon_std, PLUS, Constant(0.0, 0.0), cfg)
    assert isinstance(traj.outcome, Escaped)
    assert traj.steps_run == traj.outcome.at_step
    assert len(traj.points) == traj.steps_run + 1  # nothing after the escape


@pytest.mark.parametrize("alpha1", [0.0, -0.0])
@pytest.mark.parametrize("ell1", [0.0, -0.0])
@pytest.mark.parametrize("alpha2", [0.0, -0.0])
@pytest.mark.parametrize("ell2", [0.0, -0.0])
def test_signed_zero_channels_match_control_at_step(henon_std, alpha1, ell1, alpha2, ell2):
    # alpha = -0.0 realizes -0.0 at chi = -1 but 0.0 at chi = +1, so such a
    # channel is not constant even at ell = 0.
    schedule = Stochastic(ControlChannel(alpha1, ell1), ControlChannel(alpha2, ell2))
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=700, seed=0)
    traj = run_trajectory(henon_std, PLUS, schedule, cfg)
    assert traj.steps_run == 700
    rng = stream_for_trial(0, 0)
    for n, pair in enumerate(traj.controls):
        rng, d1, d2 = control_at_step(schedule, rng)
        assert repr(pair) == repr((d1, d2)), n


_unit = st.floats(0.0, 1.0, exclude_max=True)
_channel = st.builds(
    ControlChannel,
    _unit,
    st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
    st.sampled_from(list(NoiseDist)),
)
_schedules = st.one_of(
    st.builds(Constant, _unit, _unit),
    st.builds(Stochastic, _channel, _channel),
)


@settings(deadline=None)
@given(
    params=st.sampled_from([henon(), lozi()]),
    schedule=_schedules,
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
    steps=st.integers(1, 120),
    seed=st.integers(0, 2**64 - 1),
)
def test_engine_matches_control_step_composition(params, schedule, x0, y0, steps, seed):
    # the engine must reproduce control_at_step + vmtoc_step bit for bit
    cfg = SimConfig(initial=Point2(x0, y0), steps=steps, seed=seed)
    traj = run_trajectory(params, PLUS, schedule, cfg)
    star = fixed_point(params, PLUS)
    rng = stream_for_trial(seed, 0)
    p = Point2(x0, y0)
    assert len(traj.points) == traj.steps_run + 1
    for n, q in enumerate(traj.points[1:]):
        rng, d1, d2 = control_at_step(schedule, rng)
        p = vmtoc_step(params, star, d1, d2, p)
        assert repr((p.x, p.y)) == repr(q)
        assert repr(traj.controls[n]) == repr((d1, d2))


def _reference_run(params, branch, schedule, cfg, record, trial=0, init=None):
    """The engine's contract, one control_at_step + vmtoc_step at a time.

    Runs trial `trial` of cfg.seed from init, or from cfg.initial.
    """
    star = fixed_point(params, branch)
    rng = stream_for_trial(cfg.seed, trial)
    p = cfg.initial if init is None else init
    points, controls = [(p.x, p.y)], []
    outcome, in_tol, n = None, 0, 0
    window = min(CONV_WINDOW, cfg.steps)
    for n in range(1, cfg.steps + 1):
        rng, d1, d2 = control_at_step(schedule, rng)
        p = vmtoc_step(params, star, d1, d2, p)
        points.append((p.x, p.y))
        controls.append((d1, d2))
        if not (abs(p.x) <= ESCAPE_BOUND and abs(p.y) <= ESCAPE_BOUND):
            outcome = Escaped(n)
            break
        if max(abs(p.x - star.x), abs(p.y - star.y)) < CONV_TOL:
            in_tol += 1
            if in_tol >= window:
                outcome = Converged(n)
                break
        else:
            in_tol = 0
    if record == "tail":
        # the states of the last record_tail steps, or the final state of a
        # run that stopped before them, and the pairs that produced them
        start = min(cfg.transient + 1, n)
        points, controls = points[start:], controls[start - 1:]
    if outcome is None:
        outcome = _classify_points(points[-cfg.record_tail:], n, star)
    return points, controls, outcome, n


def _bitwise_fixed_point(params, d1, d2):
    star = fixed_point(params, PLUS)
    p = Point2(0.1, 0.1)
    for _ in range(400):
        p = vmtoc_step(params, star, d1, d2, p)
    return p


#: Constant-schedule runs that reach a bitwise cycle: name -> (params,
#: branch, (d1, d2), initial state).  test_cycle_cases_cover checks that
#: each shows what its name says.
_CYCLE_CASES = {
    "period-2": (henon(), PLUS, (0.35, 0.0), Point2(0.1, 0.1)),
    "period-4": (henon(), PLUS, (0.2, 0.0), Point2(0.1, 0.1)),
    "period-4-lozi": (lozi(), PLUS, (0.2, 0.5), Point2(0.1, 0.1)),
    # a bitwise cycle longer than PERIOD_MAX, which the classifier, within
    # PERIOD_TOL, reads as period 8
    "period-32": (henon(), PLUS, (0.174, 0.0), Point2(0.1, 0.1)),
    # a bitwise 2-cycle within CONV_TOL of the target: the replay counts the
    # window on and converges at step 75, on the cycle's second state
    "period-2-in-tol": (henon(), PLUS, (0.777, 0.5), Point2(-0.64, 0.61)),
    # starts on a bitwise fixed point inside CONV_TOL: the cycle is found at
    # step 1, and the replay must count the window to Converged(50)
    "converged-in-window": (
        lozi(), PLUS, (0.6, 0.5), _bitwise_fixed_point(lozi(), 0.6, 0.5),
    ),
    # state 1 is (0.0, -0.0), equal to the initial (-0.0, 0.0) under `==`;
    # its image (0.0, 0.0) differs from state 1 in the sign of y
    "signed-zero": (lozi(1.5, 0.5), Branch.MINUS, (0.5, 0.0), Point2(-0.0, 0.0)),
}


#: Runs of named cycle cases: name -> (case, steps, record).  Batch runs
#: record only the last record_tail states, so a cycle found before that
#: window must be stepped again.  test_cycle_cases_cover checks that each
#: shows what its name says.
_TAIL_CASES = {
    "cycle-before-window": ("period-2", 600, "tail"),
    "cycle-inside-window": ("period-2", 240, "tail"),
    "converged-in-replay": ("converged-in-window", 400, "tail"),
    # the states recorded when the loop ends already form a Converged tail
    # shorter than CONV_WINDOW, but the replay moves its step from 2 to 3
    "short-tail-in-replay": ("converged-in-window", 3, "all"),
    # the run ends within one period of the cycle exit, so the replay
    # records fewer states than the period
    "cycle-near-end": ("period-4", 133, "all"),
}


def _tail_case(name):
    case, steps, record = _TAIL_CASES[name]
    params, branch, (d1, d2), init = _CYCLE_CASES[case]
    cfg = SimConfig(initial=init, steps=steps)
    return params, branch, Constant(d1, d2), cfg, record


def _brent_exit(points, max_period):
    """Step n at whose start the engine's cycle detection ends the loop, or None.

    Mirrors `_run_raw`: the saved state moves to state n - 1 at n = 1, 2, 4,
    ...; a repeat with a longer period stops the search.
    """
    saved, save_at = None, 1
    for n in range(1, len(points)):
        if saved is not None and repr(points[n - 1]) == repr(points[saved]):
            if n - 1 - saved <= max_period:
                return n
            saved, save_at = None, 0
        if n == save_at:
            saved, save_at = n - 1, 2 * n
    return None


def _first_repeat_period(points):
    """Period of the first bitwise repeat of a state, or None."""
    seen = {}
    for n, (x, y) in enumerate(points):
        key = (x.hex(), y.hex())
        if key in seen:
            return n - seen[key]
        seen[key] = n
    return None


def test_cycle_cases_cover():
    runs = {}
    for name, (params, branch, (d1, d2), init) in _CYCLE_CASES.items():
        cfg = SimConfig(initial=init, steps=400)
        runs[name] = _reference_run(params, branch, Constant(d1, d2), cfg, "all")
    for name, period in (("period-2", 2), ("period-4", 4), ("period-4-lozi", 4)):
        points, _, outcome, n = runs[name]
        assert outcome == Periodic(period)
        assert _first_repeat_period(points) == period
    points, _, outcome, n = runs["period-32"]
    assert outcome == Periodic(8) and _first_repeat_period(points) == 32 > sim.PERIOD_MAX
    points, _, outcome, n = runs["period-2-in-tol"]
    assert outcome == Converged(75) and _first_repeat_period(points) == 2
    assert repr(points[-1]) != repr(points[-2])
    points, _, outcome, n = runs["converged-in-window"]
    assert points[1] == points[0] and outcome == Converged(CONV_WINDOW)
    points, _, outcome, n = runs["signed-zero"]
    assert points[0] == points[1] and repr(points[0]) != repr(points[1])
    assert repr(points[2]) == "(0.0, 0.0)" and outcome == Periodic(1)
    exits = {}
    for name in _TAIL_CASES:
        params, branch, schedule, cfg, _ = _tail_case(name)
        points, _, outcome, n = _reference_run(params, branch, schedule, cfg, "all")
        exits[name] = _brent_exit(points, cfg.record_tail), cfg.steps - cfg.record_tail + 1, outcome
    # the loop ends at the start of step `at`, before or after recording began
    at, first, outcome = exits["cycle-before-window"]
    assert at < first and outcome == Periodic(2)
    at, first, outcome = exits["cycle-inside-window"]
    assert first < at and outcome == Periodic(2)
    at, first, outcome = exits["converged-in-replay"]
    assert outcome == Converged(CONV_WINDOW) and at < CONV_WINDOW < first
    at, _, outcome = exits["short-tail-in-replay"]
    assert outcome == Converged(3) and at == 2
    at, _, _ = exits["cycle-near-end"]
    steps = _TAIL_CASES["cycle-near-end"][1]
    # the replay steps states at..steps, fewer than the period of 4
    assert at == 132 and steps + 1 - at < 4


@st.composite
def _cycle_runs(draw):
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_CYCLE_CASES)))
        params, branch, (d1, d2), init = _CYCLE_CASES[name]
    else:
        params = draw(st.sampled_from([henon(), lozi()]))
        branch = PLUS
        d1, d2 = draw(_unit), draw(st.sampled_from([0.0, 0.5, 0.9]))
        init = Point2(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    cfg = SimConfig(initial=init, steps=draw(st.integers(1, 600)))
    return params, branch, Constant(d1, d2), cfg, draw(st.sampled_from(["all", "tail"]))


@settings(deadline=None, max_examples=150)
@given(run=_cycle_runs())
@example(run=_tail_case("cycle-before-window"))
@example(run=_tail_case("cycle-inside-window"))
@example(run=_tail_case("converged-in-replay"))
@example(run=_tail_case("short-tail-in-replay"))
@example(run=_tail_case("cycle-near-end"))
def test_cycle_exit_matches_step_reference(run):
    params, branch, schedule, cfg, record = run
    traj = run_trajectory(params, branch, schedule, cfg, record=record)
    points, controls, outcome, n = _reference_run(params, branch, schedule, cfg, record)
    assert repr(traj.points) == repr(points)
    assert repr(traj.controls) == repr(controls)
    assert traj.outcome == outcome
    assert traj.steps_run == n
    if record == "tail":
        # the engine's list, replay included, never outgrows the window
        assert len(traj.points) <= cfg.record_tail
    # a limit set records only its tail, and steps a cycle found before it again
    assert repr(limit_set(params, branch, schedule, cfg)) == repr(
        _reference_limit_set(params, branch, schedule, cfg))


def _reference_limit_set(params, branch, schedule, cfg):
    """`_reference_run`'s tail under the limit-set rule: nothing for an
    escaped run, the final state record_tail times for a converged one."""
    tail, _, outcome, _ = _reference_run(params, branch, schedule, cfg, "tail")
    if isinstance(outcome, Escaped):
        return []
    if isinstance(outcome, Converged):
        return [tail[-1]] * cfg.record_tail
    return tail


#: Stochastic tail runs that end before their window opens, or leave the loop
#: by the cycle exit: name -> arguments of test_tail_trajectory_is_the_window.
#: test_window_cases_cover checks that each shows what its name says.
_WINDOW_CASES = {
    "converged-before-window": dict(
        params=henon(), ch1=ControlChannel(0.6, 0.05), ch2=ControlChannel(0.0),
        init=Point2(0.3, 0.1), steps=2000, seed=0,
    ),
    "escaped-before-window": dict(
        params=henon(), ch1=ControlChannel(0.1, 0.05, NoiseDist.UNIFORM_M1P1),
        ch2=ControlChannel(0.2, 0.1, NoiseDist.UNIFORM_M1P1),
        init=Point2(10.0, 0.0), steps=300, seed=0,
    ),
    # ell = 0 on both channels realizes a constant pair
    "cycle-exit": dict(
        params=lozi(), ch1=ControlChannel(0.4, 0.0), ch2=ControlChannel(0.0),
        init=Point2(-10.0, -15.0), steps=2000, seed=0,
    ),
}


def test_window_cases_cover():
    runs = {}
    for name, case in _WINDOW_CASES.items():
        cfg = SimConfig(initial=case["init"], steps=case["steps"], seed=case["seed"])
        schedule = Stochastic(case["ch1"], case["ch2"])
        runs[name] = cfg, _reference_run(case["params"], PLUS, schedule, cfg, "all")
    cfg, (_, _, outcome, n) = runs["converged-before-window"]
    assert isinstance(outcome, Converged) and n <= cfg.transient
    cfg, (_, _, outcome, n) = runs["escaped-before-window"]
    assert isinstance(outcome, Escaped) and n <= cfg.transient
    cfg, (points, _, outcome, _) = runs["cycle-exit"]
    assert outcome == Periodic(2) and _brent_exit(points, cfg.record_tail) <= cfg.transient


@settings(deadline=None, max_examples=60)
@given(
    params=st.sampled_from([henon(), lozi()]),
    ch1=_channel,
    ch2=_channel,
    init=st.builds(Point2, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    steps=st.integers(1, 400),
    seed=st.integers(0, 2**64 - 1),
)
@example(**_WINDOW_CASES["converged-before-window"])
@example(**_WINDOW_CASES["escaped-before-window"])
@example(**_WINDOW_CASES["cycle-exit"])
def test_tail_trajectory_is_the_window(params, ch1, ch2, init, steps, seed):
    # Bernoulli and uniform channels: the tail is the states of the last
    # record_tail steps, or the final state of a run that stopped before them
    cfg = SimConfig(initial=init, steps=steps, seed=seed)
    schedule = Stochastic(ch1, ch2)
    traj = run_trajectory(params, PLUS, schedule, cfg, record="tail")
    points, controls, outcome, n = _reference_run(params, PLUS, schedule, cfg, "tail")
    assert repr(traj.points) == repr(points)
    assert repr(traj.controls) == repr(controls)
    assert (traj.outcome, traj.steps_run) == (outcome, n)
    assert len(traj.points) == (n - cfg.transient if n > cfg.transient else 1)
    assert len(traj.points) <= cfg.record_tail


# Means and amplitudes this small keep both maps bounded from these starts, so
# a run takes every one of its steps.
_quiet_channel = st.builds(
    ControlChannel,
    st.floats(0.02, 0.05),
    st.floats(0.0, 0.02, exclude_min=True),
    st.sampled_from(list(NoiseDist)),
)


@settings(deadline=None, max_examples=25)
@given(
    params=st.sampled_from([henon(), lozi()]),
    ch1=_quiet_channel,
    ch2=_quiet_channel,
    x0=st.floats(0.2, 0.4),
    y0=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**64 - 1),
)
def test_long_stochastic_run_matches_step_reference(params, ch1, ch2, x0, y0, seed):
    # 3100 steps draw 6200 words: every chunk size of control_pairs and two
    # chunks at its cap.
    schedule = Stochastic(ch1, ch2)
    cfg = SimConfig(initial=Point2(x0, y0), steps=3100, seed=seed)
    traj = run_trajectory(params, PLUS, schedule, cfg, record="all")
    points, controls, outcome, n = _reference_run(params, PLUS, schedule, cfg, "all")
    assert traj.steps_run == n == 3100
    assert (len(traj.points), len(traj.controls)) == (len(points), len(controls))
    # item by item: a failing assert on two long reprs makes every shrink
    # step diff them
    for i, (got, want) in enumerate(zip(traj.points, points)):
        assert repr(got) == repr(want), i
    for i, (got, want) in enumerate(zip(traj.controls, controls)):
        assert repr(got) == repr(want), i
    assert traj.outcome == outcome


# --- compiled kernels -----------------------------------------------------------

#: Channels that are never constant: ell > 0 draws two distinct values.
_drawn_channel = st.builds(
    ControlChannel,
    _unit,
    st.floats(0.01, 0.6),
    st.sampled_from(list(NoiseDist)),
)


@st.composite
def _kernel_runs(draw):
    """A run for each of the four kernels: map x (constant pair | drawn pairs)."""
    params = draw(st.sampled_from([henon(), lozi()]))
    constant = draw(st.booleans())
    if constant:
        schedule = Constant(draw(_unit), draw(st.sampled_from([0.0, 0.5, 0.9])))
    else:
        schedule = Stochastic(draw(_drawn_channel), draw(st.one_of(_channel, _drawn_channel)))
    init = Point2(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    cfg = SimConfig(initial=init, steps=draw(st.integers(1, 450)),
                    seed=draw(st.integers(0, 2**64 - 1)))
    return params, schedule, constant, cfg, draw(st.sampled_from(["all", "tail"]))


@settings(deadline=None, max_examples=200)
@given(run=_kernel_runs())
def test_kernels_match_step_reference(run):
    # both segments of every kernel, the unrecorded one running up to 250
    # steps before a tail of RECORD_TAIL states
    params, schedule, constant, cfg, record = run
    values = (schedule.ch1.constant_value, schedule.ch2.constant_value)
    assert constant == (None not in values)
    traj = run_trajectory(params, PLUS, schedule, cfg, record=record)
    points, controls, outcome, n = _reference_run(params, PLUS, schedule, cfg, record)
    assert repr(traj.points) == repr(points)
    assert repr(traj.controls) == repr(controls)
    assert (traj.outcome, traj.steps_run) == (outcome, n)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
            1.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("a", [1.4, 1e300, 5e-324])
def test_lozi_sign_split_matches_map_step(constant, a):
    # one step of a Lozi kernel with coefficients (-0.0, 1.0, -0.0, 1.0), so
    # that x' = -0.0 + 1.0 * F1 is F1 itself, signed zeros and NaN included
    params = lozi(a, 0.3)
    kernel = sim._kernel(False, constant)
    coefs = (-0.0, 1.0, -0.0, 1.0)
    for x in _SPECIAL:
        for y in _SPECIAL + [-1.0 - 2**-52]:
            rec = []
            kernel(params.a, params.b, 0.0, 0.0, x, y, coefs if constant else iter([coefs]),
                   steps=1, split=1, n=0, in_tol=0, tail=1, window=1, append=rec.append)
            want = map_step(params, Point2(x, y))
            assert repr(rec) == repr([(want.x, want.y)]), (x, y)


def test_kernel_cache_holds_at_most_four_kernels(tmp_path):
    # the kernels compile once per process, however many runs read them
    sim._kernel.cache_clear()
    for argv in (["verify"],
                 ["repro", "fig1a", "--out", str(tmp_path / "a.csv")],
                 ["repro", "fig8b", "--out", str(tmp_path / "b.csv")]):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_command(argv)
    info = sim._kernel.cache_info()
    assert info.currsize <= 4 and info.misses <= 4 and info.hits > 1000


@settings(deadline=None, max_examples=30)
@given(
    params=st.sampled_from([henon(), lozi()]),
    schedule=st.one_of(
        st.builds(Constant, st.floats(0.4, 0.7), st.sampled_from([0.0, 0.5])),
        st.builds(Stochastic, _drawn_channel, _channel),
    ),
    inits=st.lists(st.builds(Point2, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                   min_size=1, max_size=3),
    steps=st.integers(1, 450),
    seed=st.integers(0, 2**64 - 1),
)
@example(params=lozi(), schedule=Stochastic(ControlChannel(0.4, 0.15)),
         inits=[Point2(-10.0, -15.0), Point2(0.3, 0.1)], steps=450, seed=0)
def test_mc_convergence_records_nothing_and_counts_like_the_reference(
        params, schedule, inits, steps, seed):
    # a trial reads only the engine's outcome: its run records no state, or
    # the final one of a run that stopped early
    records, run_raw = [], sim._run_raw

    def spy(*args):
        out = run_raw(*args)
        records.append(sim._repeat(out[2], out[3]))
        return out

    trials = 6
    cfg = SimConfig(initial=inits[0], steps=steps, seed=seed)
    sim._run_raw = spy
    try:
        rep = mc_convergence(params, PLUS, schedule, PointSet(tuple(inits)), trials, cfg)
    finally:
        sim._run_raw = run_raw
    want = sum(
        isinstance(_reference_run(params, PLUS, schedule, cfg, "tail", k,
                                  inits[k % len(inits)])[2], Converged)
        for k in range(trials)
    )
    assert rep.converged == want
    assert len(records) == trials and all(len(rec) <= 1 for rec in records)


@settings(deadline=None)
@given(
    params=st.sampled_from([henon(), lozi()]),
    schedule=st.one_of(
        st.builds(Constant, st.floats(0.3, 0.7), st.sampled_from([0.0, 0.5])),
        st.builds(Stochastic, _channel, _channel),
    ),
    offset=st.sampled_from([0.0, 5e-10, 1e-6, 1e-3, 0.2]),
    steps=st.integers(1, 150),
    seed=st.integers(0, 2**64 - 1),
)
def test_raw_converged_decision_matches_classify_tail(params, schedule, offset, steps, seed):
    # sweep cells and Monte Carlo trials skip Trajectory and classify_tail
    star = fixed_point(params, PLUS)
    cfg = SimConfig(initial=Point2(star.x + offset, star.y - offset), steps=steps, seed=seed)
    traj = run_trajectory(params, PLUS, schedule, cfg, record="tail")
    outcome = classify_tail(traj, star, cfg)
    tail = limit_set(params, PLUS, schedule, cfg)
    if isinstance(outcome, Escaped):
        assert tail == []
    elif isinstance(outcome, Converged):
        assert repr(tail) == repr([traj.points[-1]] * cfg.record_tail)
    else:
        assert repr(tail) == repr(traj.points)
    rep = mc_convergence(params, PLUS, schedule, PointSet((cfg.initial,)), 1, cfg)
    assert rep.converged == isinstance(outcome, Converged)


def test_trajectory_determinism(henon_std):
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=1500, seed=9)
    sched = Stochastic(
        ControlChannel(0.44, 0.3), ControlChannel(0.2, 0.1, NoiseDist.UNIFORM_M1P1)
    )
    a = run_trajectory(henon_std, PLUS, sched, cfg)
    b = run_trajectory(henon_std, PLUS, sched, cfg)
    assert a.points == b.points
    assert a.controls == b.controls
    assert a.outcome == b.outcome


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(initial=Point2(0, 0), steps=0)
    # the tail, the transient and the tolerance are sim's, not the config's
    for knob in ("transient", "record_tail", "conv_tol"):
        with pytest.raises(TypeError):
            SimConfig(initial=Point2(0, 0), steps=2000, **{knob: 1})
    assert SimConfig._fields == ("initial", "steps", "seed")


def test_config_transient_is_what_the_tail_leaves():
    # the tail is the last min(RECORD_TAIL, steps) states
    for steps, tail in ((2000, 200), (201, 200), (200, 200), (50, 50), (1, 1)):
        cfg = SimConfig(initial=Point2(0, 0), steps=steps)
        assert (cfg.record_tail, cfg.transient) == (tail, steps - tail)


# --- tail classification -------------------------------------------------------

def _mk_traj(points, steps_run):
    return Trajectory(points=points, controls=[], outcome=Bounded(), steps_run=steps_run)


def test_classify_constant_at_target(henon_std):
    star = fixed_point(henon_std, PLUS)
    cfg = SimConfig(initial=star, steps=700, seed=0)
    traj = _mk_traj([(star.x, star.y)] * 700, 700)
    assert isinstance(classify_tail(traj, star, cfg), Converged)


def test_classify_two_cycle():
    cfg = SimConfig(initial=Point2(0, 0), steps=700, seed=0)
    traj = _mk_traj([(0.25, 0.0), (0.75, 0.0)] * 350, 700)
    assert classify_tail(traj, Point2(0.5, 0.0), cfg) == Periodic(2)


def test_classify_insufficient_data():
    cfg = SimConfig(initial=Point2(0, 0), steps=700, seed=0)
    traj = _mk_traj([Point2(0.1, 0.1)] * 300, 300)
    with pytest.raises(InsufficientData):
        classify_tail(traj, Point2(0.5, 0.0), cfg)


def test_classify_early_outcomes_pass_through():
    cfg = SimConfig(initial=Point2(0, 0), steps=700, seed=0)
    traj = Trajectory(points=[], controls=[], outcome=Escaped(12), steps_run=12)
    assert classify_tail(traj, Point2(0.5, 0.0), cfg) == Escaped(12)


def test_near_target_period_one_is_converged(henon_std):
    # a tail hovering within CONV_TOL of the target counts as converged; one
    # hovering just outside it is period-1 only
    star = fixed_point(henon_std, PLUS)
    cfg = SimConfig(initial=star, steps=700, seed=0)
    for dist, want in ((4e-10, Converged(700)), (2e-9, Periodic(1))):
        pts = [(star.x + dist * (-1) ** i, star.y - dist * (-1) ** i) for i in range(700)]
        assert classify_tail(_mk_traj(pts, 700), star, cfg) == want


# --- bifurcation sweeps ---------------------------------------------------------

def _values(unit, count):
    """A sweep cell's tail x values: its unit repeated and cut to count values."""
    return None if unit is None else [unit[k % len(unit)] for k in range(count)]


def _collapse_from_cells(res, n_inits, tail):
    """Reference collapse point of a full sweep: the lowest alpha of the run of
    alphas at the top of the grid whose cells that did not escape keep the
    x-spread of their last COLLAPSE_WINDOW tail points below COLLAPSE_TOL."""
    collapsed = []
    for i in range(len(res.alphas)):
        tails = [x for cell in res.cells[i * n_inits:(i + 1) * n_inits] if cell
                 for x in _values(cell, tail)[-sim.COLLAPSE_WINDOW:]]
        collapsed.append(bool(tails) and max(tails) - min(tails) < sim.COLLAPSE_TOL)
    want = None
    i = len(collapsed)
    while i > 0 and collapsed[i - 1]:
        i -= 1
        want = res.alphas[i]
    return want


def _grid_sweep(params, branch, ch2, lo, hi, n_alpha, inits, cfg, **kwargs):
    """The one-call sweep of the grid that `collapse_alpha` searches."""
    return bifurcation_sweep(params, branch, ch2, alpha_grid(lo, hi, n_alpha), inits, cfg,
                             **kwargs)


def test_bifurcation_collapse_narrow(henon_std):
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0)
    args = (henon_std, PLUS, ControlChannel(0.0), 0.49, 0.55, 60, default_init_grid(8), cfg)
    res = _grid_sweep(*args)
    got = collapse_alpha(*args)
    assert got == pytest.approx(0.5164, abs=5e-3)
    assert got == _collapse_from_cells(res, 8, cfg.record_tail)
    assert len(res.cells) == 60 * 8
    assert all(cell is not None and 1 <= len(cell) <= cfg.record_tail for cell in res.cells)


@pytest.mark.parametrize("case", verify.COLLAPSE_CASES, ids=lambda c: c[0])
def test_collapse_tol_places_collapse_within_0004_above_threshold(case):
    # the bound that sim.COLLAPSE_TOL's comment states, on verify's rows 3a-3d
    _, params, beta, lo, hi, _ = case
    got = verify.collapse_point(params, beta, lo, hi)
    assert 0.0 < got - local_threshold(params, PLUS, beta) <= 0.004


def test_bifurcation_noise_lowers_collapse(lozi_std):
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0)
    grid = default_init_grid(12)
    a_clean = collapse_alpha(lozi_std, PLUS, ControlChannel(0.9), 0.2, 0.35, 80, grid, cfg)
    a_noisy = collapse_alpha(
        lozi_std, PLUS, ControlChannel(0.9), 0.2, 0.35, 80, grid, cfg, ell1=0.2
    )
    assert a_clean == pytest.approx(0.301, abs=5e-3)
    assert a_noisy < a_clean


def test_bifurcation_threads_bit_identical(henon_std):
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0)
    args = (henon_std, PLUS, ControlChannel(0.0), 0.4, 0.6, 20, default_init_grid(5), cfg)
    serial = _grid_sweep(*args, ell1=0.1, threads=1)
    parallel = _grid_sweep(*args, ell1=0.1, threads=4)
    # the same units and escaped cells, signs of zero included
    assert repr(serial.cells) == repr(parallel.cells)
    want = _collapse_from_cells(serial, 5, cfg.record_tail)
    assert serial.alphas[0] < want
    assert collapse_alpha(*args, ell1=0.1, threads=4) == want
    assert collapse_alpha(*args, ell1=0.1, threads=1) == want


@pytest.mark.parametrize("params,lo,hi,n_alpha,ell1,outcome,escaped", [
    pytest.param(henon(), 0.3, 0.45, 4, 0.0, "none", False, id="none"),
    pytest.param(henon(), 0.55, 0.6, 3, 0.0, "bottom", False, id="bottom-alpha"),
    pytest.param(henon(), 0.49, 0.55, 7, 0.0, "mid", False, id="mid-grid"),
    # every cell escapes, so even the top alpha has no tail to collapse
    pytest.param(henon(2.2), 0.0, 0.2, 3, 0.2, "none", True, id="all-escaped"),
    # 0.51 collapses with two of its three cells escaped, 0.52 does not
    # collapse, and every alpha from 0.53 up does: the answer is 0.53
    pytest.param(henon(2.2), 0.3, 0.8, 51, 0.3, "mid", True, id="escaped-below-gap"),
])
def test_collapse_alpha_outcomes(params, lo, hi, n_alpha, ell1, outcome, escaped):
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0)
    args = (params, PLUS, ControlChannel(0.0), lo, hi, n_alpha, default_init_grid(3), cfg)
    res = _grid_sweep(*args, ell1=ell1)
    got = collapse_alpha(*args, ell1=ell1)
    assert got == _collapse_from_cells(res, 3, cfg.record_tail)
    assert any(cell is None for cell in res.cells) == escaped
    if outcome == "none":
        assert got is None
    elif outcome == "bottom":
        assert got == res.alphas[0]
    else:
        assert res.alphas[0] < got <= res.alphas[-1]


def test_threads_default_is_serial(henon_std, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the thread pool ran without threads > 1")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0)
    bifurcation_sweep(henon_std, PLUS, ControlChannel(0.0), alpha_grid(0.4, 0.6, 3),
                      default_init_grid(2), cfg, ell1=0.1)
    mc_convergence(henon_std, PLUS, Constant(0.6), PointSet((Point2(0.3, 0.1),)), 3, cfg)


@settings(deadline=None, max_examples=100)
@given(
    kind=st.sampled_from(["henon", "lozi"]),
    a=st.floats(1.2, 2.2),
    lo=st.floats(0.0, 0.6),
    width=st.floats(0.01, 0.3),
    n_alpha=st.integers(2, 5),
    n_inits=st.integers(1, 4),
    ell1=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    steps=st.one_of(st.integers(1, 60), st.integers(61, 800)),
)
def test_sweep_cells_match_spread_collapse_and_csv(kind, a, lo, width, n_alpha, n_inits,
                                                   ell1, steps):
    # the tail is the last min(200, steps) states: all of a run of <= 200 steps
    argv = ["bifurcation", "--map", kind, "--a", repr(a),
            "--alpha-range", f"{lo!r}:{lo + width!r}:{n_alpha}",
            "--inits", str(n_inits), "--ell1", repr(ell1), "--steps", str(steps)]
    args = cli._parse(argv)
    sweep_args = (cli._params(args), PLUS, ControlChannel(0.0), lo, lo + width, n_alpha,
                  default_init_grid(n_inits), cli._config(args, Point2(0.1, 0.1)))
    res = _grid_sweep(*sweep_args, ell1=ell1)
    tail = sweep_args[-1].record_tail
    assert len(res.cells) == n_alpha * n_inits
    assert collapse_alpha(*sweep_args, ell1=ell1) == _collapse_from_cells(res, n_inits, tail)
    escaped = sum(cell is None for cell in res.cells)
    lines = cli.render(argv).splitlines()
    assert lines[1] == f"# escaped_cells: {escaped}"
    assert lines[3:] == [f"{res.alphas[k // n_inits]!r},{x!r}"
                         for k, cell in enumerate(res.cells) for x in _values(cell, tail) or ()]


@settings(deadline=None, max_examples=60)
@given(
    params=st.sampled_from([henon(), lozi()]),
    lo=st.floats(0.0, 0.6),
    width=st.floats(0.01, 0.3),
    n_alpha=st.integers(2, 5),
    n_inits=st.integers(1, 4),
    ell1=st.sampled_from([0.0, 0.1, 0.3]),
    alpha2=st.sampled_from([0.0, 0.8]),
    steps=st.one_of(st.integers(1, 60), st.integers(61, 800)),
    seed=st.integers(0, 2**64 - 1),
)
def test_rows_swept_one_call_each_equal_the_grid_sweep(params, lo, width, n_alpha, n_inits,
                                                      ell1, alpha2, steps, seed):
    # a constant schedule (ell1 = 0) or Bernoulli noise on channel 1, on
    # either map: row r on streams from r * n_inits is the grid's row r
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=steps, seed=seed)
    alphas = alpha_grid(lo, lo + width, n_alpha)
    inits = default_init_grid(n_inits)
    args = (params, PLUS, ControlChannel(alpha2))
    whole = bifurcation_sweep(*args, alphas, inits, cfg, ell1=ell1)
    rows = [
        bifurcation_sweep(*args, (alpha,), inits, cfg, ell1=ell1, first_stream=r * n_inits)
        for r, alpha in enumerate(alphas)
    ]
    assert tuple(alpha for row in rows for alpha in row.alphas) == whole.alphas
    # the same units and escaped cells, signs of zero included
    assert repr([cell for row in rows for cell in row.cells]) == repr(whole.cells)


#: Bytes a finished sweep may retain per cell.  A cell is its unit of
#: doubles, an array of about 80 bytes of header and 8 a value, and its slot
#: in the list of cells: about 1.69 KB for a noisy 200-value tail and 0.1 KB
#: for a converged one.  A list of 200 float references alone takes
#: 1.66 KB, so a sweep that keeps its tails as lists exceeds this.
_CELL_BYTES = 1536


def test_sweep_retains_units_of_doubles(henon_std):
    # fig8b's sweep (Bernoulli noise on channel 1, 0.8 y-control), cut to
    # 10 alphas x 10 initial states
    args = (henon_std, PLUS, ControlChannel(0.8), alpha_grid(0.3, 0.6, 10), default_init_grid(10),
            SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0))
    bifurcation_sweep(*args, ell1=0.2861)  # compiles the kernels and fills the caches
    tracemalloc.start()
    try:
        res = bifurcation_sweep(*args, ell1=0.2861)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    units = [len(cell) for cell in res.cells if cell is not None]
    assert 1 in units and 200 in units  # converged and noisy cells both
    assert retained / len(res.cells) <= _CELL_BYTES


#: Length of a sweep cell's unit for each named run: one value for a
#: converged cell, one turn for a cycle the replay filled the whole tail
#: with, the whole tail when the cycle exit came after the tail began.
_UNIT_LENGTHS = {
    "cycle-before-window": 2,
    "cycle-inside-window": 200,
    "converged-in-replay": 1,
    "short-tail-in-replay": 1,
    "cycle-near-end": 133,
}
#: Named cycles as sweep cells: name -> (case, steps, unit length).
_CELL_CASES = {
    "period-1": ("signed-zero", 700, 1),
    "period-4-lozi": ("period-4-lozi", 700, 4),
    "period-32": ("period-32", 700, 32),
    # the cycle exit comes after the tail began, and the run converges in
    # the replay: the final state is the last of the replayed states
    "period-2-converged-in-replay": ("period-2-in-tol", 200, 1),
}


def _named_cell_run(name):
    if name in _TAIL_CASES:
        return _tail_case(name)[:4]
    case, steps, _ = _CELL_CASES[name]
    params, branch, (d1, d2), init = _CYCLE_CASES[case]
    return params, branch, Constant(d1, d2), SimConfig(initial=init, steps=steps)


def _cell_matches_reference(params, branch, schedule, cfg):
    """The limit set and the sweep cell of a run, checked against the
    step-by-step reference; the sweep cell is cell 0 of a one-cell sweep."""
    tail = _reference_limit_set(params, branch, schedule, cfg)
    assert repr(limit_set(params, branch, schedule, cfg)) == repr(tail)
    ch1 = schedule.ch1
    (cell,) = bifurcation_sweep(params, branch, schedule.ch2, (ch1.alpha,), [cfg.initial], cfg,
                                ch1.ell, ch1.dist).cells
    if not tail:
        assert cell is None
        return None
    assert cfg.record_tail == len(tail)
    assert repr(_values(cell, cfg.record_tail)) == repr([x for x, _ in tail])
    return cell


@pytest.mark.parametrize("name", [*_TAIL_CASES, *_CELL_CASES])
def test_sweep_unit_of_named_runs(name):
    cell = _cell_matches_reference(*_named_cell_run(name))
    want = _UNIT_LENGTHS[name] if name in _TAIL_CASES else _CELL_CASES[name][2]
    assert len(cell) == want


@st.composite
def _cell_runs(draw):
    """One sweep cell's run: a named cycle, or either map under a constant,
    Bernoulli or uniform schedule."""
    kind = draw(st.sampled_from(["cycle", "constant", "bernoulli", "uniform"]))
    if kind == "cycle":
        params, branch, (d1, d2), init = _CYCLE_CASES[draw(st.sampled_from(sorted(_CYCLE_CASES)))]
        schedule = Constant(d1, d2)
    else:
        params, branch = draw(st.sampled_from([henon(), lozi()])), PLUS
        init = Point2(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        ch2 = ControlChannel(draw(st.sampled_from([0.0, 0.5, 0.9])))
        if kind == "constant":
            schedule = Stochastic(ControlChannel(draw(_unit)), ch2)
        else:
            dist = NoiseDist.BERNOULLI_PM1 if kind == "bernoulli" else NoiseDist.UNIFORM_M1P1
            schedule = Stochastic(ControlChannel(draw(_unit), draw(st.floats(0.01, 0.6)), dist),
                                  ch2)
    cfg = SimConfig(initial=init, steps=draw(st.integers(1, 800)),
                    seed=draw(st.integers(0, 2**64 - 1)))
    return params, branch, schedule, cfg


@settings(deadline=None, max_examples=200)
@given(run=_cell_runs())
def test_cell_matches_the_step_reference(run):
    cell = _cell_matches_reference(*run)
    # the unit is one value, one turn of a cycle, or the whole tail
    assert cell is None or len(cell) <= run[3].record_tail


@given(
    bounds=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2, unique=True)
    .map(sorted),
    n_alpha=st.integers(2, 2000),
)
@example(bounds=[0.36021848150999086, 0.9999999999999999], n_alpha=341)
@example(bounds=[0.15, 0.45], n_alpha=200)
def test_alpha_grid_stays_in_its_range(bounds, n_alpha):
    # lo + (hi - lo) * i / (n - 1) rounds above hi at the top of these examples
    lo, hi = bounds
    alphas = alpha_grid(lo, hi, n_alpha)
    assert len(alphas) == n_alpha and alphas[0] == lo and alphas[-1] == hi
    assert all(lo <= a <= b <= hi for a, b in zip(alphas, alphas[1:]))


def test_bifurcation_input_validation(henon_std):
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0)
    with pytest.raises(ValueError):
        alpha_grid(0.6, 0.4, 10)
    with pytest.raises(ValueError):
        alpha_grid(0.4, 0.6, 1)
    with pytest.raises(ValueError):
        bifurcation_sweep(henon_std, PLUS, ControlChannel(0.0), alpha_grid(0.4, 0.6, 10), [],
                          cfg)


# --- limit sets -----------------------------------------------------------------

def test_limit_set_collapses_above_threshold(henon_std):
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=700, seed=0)
    pts = limit_set(henon_std, PLUS, Constant(0.6, 0.0), cfg)
    star = fixed_point(henon_std, PLUS)
    assert len(pts) == cfg.record_tail
    assert all(max(abs(x - star.x), abs(y - star.y)) < 1e-6 for x, y in pts)


def test_limit_set_blurred_two_cycle(henon_std):
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=700, seed=0)
    sched = Stochastic(ControlChannel(0.44, 0.05), ControlChannel(0.0))
    pts = limit_set(henon_std, PLUS, sched, cfg)
    assert _diameter(pts) > 0.1


def test_limit_set_stabilized(henon_std):
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=700, seed=0)
    sched = Stochastic(ControlChannel(0.44, 0.3), ControlChannel(0.0))
    pts = limit_set(henon_std, PLUS, sched, cfg)
    assert _diameter(pts) < 1e-4


def test_limit_set_of_an_escaping_start_is_empty(henon_std):
    cfg = SimConfig(initial=Point2(10.0, 0.0), steps=700, seed=0)
    assert limit_set(henon_std, PLUS, Constant(0.0, 0.0), cfg) == []


def test_limit_set_is_one_run_from_the_config_start(henon_std):
    # one orbit from cfg.initial on trial stream 0: the tail of run_trajectory
    assert list(inspect.signature(limit_set).parameters) == ["params", "branch", "schedule", "cfg"]
    sched = Stochastic(ControlChannel(0.44, 0.05), ControlChannel(0.0))
    for seed in (0, 5):
        cfg = SimConfig(initial=Point2(0.3, 0.1), steps=700, seed=seed)
        traj = run_trajectory(henon_std, PLUS, sched, cfg, record="tail")
        assert repr(limit_set(henon_std, PLUS, sched, cfg)) == repr(traj.points)


# --- Monte Carlo convergence ----------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 2000), share=st.floats(0.0, 1.0))
@example(n=200, share=0.0)
@example(n=200, share=0.035)
@example(n=200, share=0.5)
@example(n=200, share=1.0)
@example(n=13, share=1 / 13)
def test_wilson_interval_against_scipy(n, share):
    k = round(share * n)
    lo, hi = wilson_interval(k, n)
    want = scipy.stats.binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
    assert lo == pytest.approx(want.low, abs=1e-12)
    assert hi == pytest.approx(want.high, abs=1e-12)


def test_wilson_interval_is_exact_at_0_and_n_successes():
    # center -/+ half-width cancelled to 5.55e-17 and 0.9999999999999999 here
    for n in range(1, 2001):
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0


def test_mc_report_invariants(henon_std):
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=2000, seed=0)
    rep = mc_convergence(
        henon_std, PLUS,
        Stochastic(ControlChannel(0.44, 0.3), ControlChannel(0.0)),
        PointSet((Point2(0.3, 0.1),)), 50, cfg,
    )
    assert rep.trials == 50
    assert 0.0 <= rep.ci_low <= rep.fraction <= rep.ci_high <= 1.0
    assert rep.fraction == rep.converged / rep.trials


def test_mc_no_noise_two_cycle_never_converges(henon_std):
    cfg = SimConfig(initial=Point2(0.3, 0.1), steps=2000, seed=0)
    rep = mc_convergence(
        henon_std, PLUS,
        Stochastic(ControlChannel(0.44, 0.0), ControlChannel(0.0)),
        PointSet((Point2(0.3, 0.1),)), 40, cfg,
    )
    assert rep.fraction == 0.0


def test_mc_global_lozi_bound(lozi_std):
    cfg = SimConfig(initial=Point2(0.0, 0.0), steps=2000, seed=0)
    rep = mc_convergence(
        lozi_std, PLUS, Constant(0.59, 0.0),
        verify._box_starts(-100.0, 100.0, 200), 200, cfg,
    )
    assert rep.fraction == 1.0


def test_mc_threads_deterministic(lozi_std):
    cfg = SimConfig(initial=Point2(0.0, 0.0), steps=2000, seed=3)
    args = (lozi_std, PLUS, Constant(0.59, 0.0),
            verify._box_starts(-50.0, 50.0, 64), 64, cfg)
    assert mc_convergence(*args, threads=1) == mc_convergence(*args, threads=8)


def test_box_starts_match_two_draws_of_each_trial_stream():
    # start k is the first two uniform draws of trial stream k of seed 0,
    # each mapped onto [lo, hi] by lo + (u + 1.0) * 0.5 * (hi - lo)
    lo, hi = -100.0, 100.0
    want = []
    for k in range(200):
        rng, z1 = next_rand(stream_for_trial(0, k))
        _, z2 = next_rand(rng)
        want.append(Point2(lo + (uniform_m1p1(z1) + 1.0) * 0.5 * (hi - lo),
                           lo + (uniform_m1p1(z2) + 1.0) * 0.5 * (hi - lo)))
    assert list(map(repr, verify._box_starts(lo, hi, 200).points)) == list(map(repr, want))


@pytest.mark.parametrize("corner", [1e308, math.inf])
def test_mc_extreme_box_corners_escape_without_error(corner):
    # Overflow gives inf or NaN states, which the escape test catches.
    cfg = SimConfig(initial=Point2(0.0, 0.0), steps=700, seed=0)
    starts = PointSet((
        Point2(-corner, -corner), Point2(corner, -corner), Point2(-corner, corner),
        Point2(corner, corner), Point2(math.inf, math.inf), Point2(math.nan, math.nan),
    ))
    for params, schedule in (
        (henon(), Constant(0.44)),
        (lozi(), Stochastic(ControlChannel(0.5, 0.2, NoiseDist.UNIFORM_M1P1))),
    ):
        assert mc_convergence(params, PLUS, schedule, starts, 20, cfg).fraction == 0.0


def test_box_sampler_validation():
    with pytest.raises(ValueError):
        PointSet(())


# --- certified geometric decay ---------------------------------------------------

def test_geometric_decay_under_certified_contraction(lozi_std):
    ch1, ch2 = ControlChannel(0.7, 0.1), ControlChannel(0.5, 0.3)
    a_star = norm_threshold(lozi_std, PLUS, 0.4, 0.0, NormKind.LINF)
    assert bounded_noise_safe(ch1.alpha, ch1.ell, a_star)
    worst = induced_norm(
        controlled_lipschitz(lozi_std, PLUS, 0.4, ch1.alpha - ch1.ell, ch2.alpha - ch2.ell),
        NormKind.LINF,
    )
    star = fixed_point(lozi_std, PLUS)
    for trial in range(40):
        cfg = SimConfig(initial=Point2(star.x + 0.3, star.y - 0.2), steps=100, seed=trial)
        traj = run_trajectory(lozi_std, PLUS, Stochastic(ch1, ch2), cfg)
        budget = vec_norm(0.3, -0.2, NormKind.LINF)
        for x, y in traj.points[1:]:
            budget *= worst
            if budget < 1e-13:
                break
            assert vec_norm(x - star.x, y - star.y, NormKind.LINF) <= budget * (1 + 1e-9)


# --- running log averages ---------------------------------------------------------

def _reference_log_nu(model, n, seed):
    """ln nu for n samples, drawn one word at a time with next_rand."""
    rng = stream_for_trial(seed, 0)
    out = []
    for _ in range(n):
        rng, z1 = next_rand(rng)
        rng, z2 = next_rand(rng)
        out.append(math.log(model.c + model.p * sample_noise(model.dist1, z1)
                            + model.q * sample_noise(model.dist2, z2)))
    return out


_weight = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.49, 0.49))
_models = st.builds(
    lambda c, fp, fq, d1, d2: NuModel(c, fp * c, fq * c, d1, d2, True),
    st.floats(0.1, 3.0),
    _weight,
    _weight,
    st.sampled_from(list(NoiseDist)),
    st.sampled_from(list(NoiseDist)),
)


@settings(deadline=None)
@given(
    model=_models,
    n=st.one_of(st.integers(1, 200), st.integers(2049, 3100)),  # > 2048: past the cap
    seed=st.integers(0, 2**64 - 1),
)
def test_lln_and_mc_log_nu_match_next_rand_reference(model, n, seed):
    vs = _reference_log_nu(model, n, seed)
    assert list(map(repr, islice(log_nu_draws(model, seed), n))) == list(map(repr, vs))
    total = total_sq = 0.0
    for v in vs:
        total += v
        total_sq += v * v
    mean = total / n
    assert mc_log_nu(model, n, seed) == (mean, math.sqrt(max(total_sq / n - mean * mean, 0.0)))


def test_lln_degenerate_model(lozi_std):
    m = build_nu_model(lozi_std, PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.3), ControlChannel(0.2))
    assert set(islice(log_nu_draws(m, 0), 100)) == {math.log(m.c)}
    assert verify._final_lln_mean(m, 100, 0) == pytest.approx(math.log(m.c), rel=1e-15)


def test_lln_band_henon(henon_std):
    m = build_nu_model(henon_std, PLUS, 0.0, NormKind.LINF,
                       ControlChannel(0.44, 0.4279), ControlChannel(0.0))
    n = 100_000
    final = verify._final_lln_mean(m, n, 7)
    _, sd = mc_log_nu(m, 20_000, seed=3)
    assert abs(final - expected_log_nu(m)) <= 4.0 * sd / math.sqrt(n)


def test_lln_band_lozi_two_bernoulli(lozi_std):
    m = build_nu_model(lozi_std, PLUS, 0.0, NormKind.L1,
                       ControlChannel(0.27, 0.2), ControlChannel(0.9, 0.55))
    n = 1_000_000
    final = verify._final_lln_mean(m, n, 7)
    _, sd = mc_log_nu(m, 20_000, seed=3)
    assert abs(final - (-0.0016)) <= 4.0 * sd / math.sqrt(n) + 1e-5


def test_verify_final_lln_mean_is_last_running_average():
    # row 6f reads only the final running mean of log_nu_draws
    n = 100_000
    for model in verify._reference_models():
        *_, total = accumulate(islice(log_nu_draws(model, 7), n), initial=0.0)
        assert repr(verify._final_lln_mean(model, n, 7)) == repr(total / n)
