"""Acceptance table: every release gate as an executable check.

`run_all` evaluates each row and reports pass/fail with the measured values;
the CLI `verify` subcommand prints the table and exits 0 only when every row
passes.  Rows 4b, 4d and 4f fail as stated: far fewer than 95% of their
trials reach the 1e-9 convergence window within 2000 steps.  The suspected
cause, that these noise amplitudes sit at the margin of stochastic
stability, is an unverified explanation: no code here computes the top
Lyapunov exponent that would show it (ROADMAP.md, item 1).  The rows are
evaluated faithfully and report the measured fractions.

Row 7 renders `repro fig3d` with `--threads 1` and `--threads 8`.  fig3d is
a `simulate` run, which never starts the thread pool, so the row checks
that rendering is deterministic within one process, not that threads give
the same output.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain, islice
from operator import add
from typing import NamedTuple, Optional

from .control import (
    Constant,
    ControlChannel,
    NoiseDist,
    Stochastic,
    control_pairs,
    stream_for_trial,
    vmtoc_step,
)
from .linalg2 import NormKind, eigen_moduli, induced_norm, mat_mul, mat_vec, trace_det_stable, vec_norm
from .maps import Branch, Matrix2, Point2, fixed_point, henon, lipschitz_matrix, lozi, map_step
from .sim import (
    Periodic,
    PointSet,
    SimConfig,
    collapse_alpha,
    default_init_grid,
    mc_convergence,
    run_trajectory,
)
from .stability import (
    bounded_noise_safe,
    build_nu_model,
    controlled_lipschitz,
    expected_log_nu,
    local_threshold,
    log_nu_draws,
    mc_log_nu,
    min_noise_for_stability,
    norm_threshold,
)

BRANCH = Branch.PLUS
_UNIT = ControlChannel(0.0, 1.0, NoiseDist.UNIFORM_M1P1)
#: The (chi1, chi2) sampler: two uniform channels whose realized d is chi.
_CHI = Stochastic(_UNIT, _UNIT)


class CheckRow(NamedTuple):
    name: str
    passed: bool
    detail: str


def _row(name: str, passed: bool, detail: str) -> CheckRow:
    return CheckRow(name, bool(passed), detail)


# --- criterion 1: threshold table -----------------------------------------

LOCAL_CASES = [
    # (params, beta, expected, tol)
    (henon(), 0.0, 0.51639, 1e-3),
    (henon(), 0.9, 0.44376, 1e-3),
    (lozi(), 0.0, 0.411765, 1e-3),
    (lozi(), 0.9, 0.3007, 1e-3),
]

NORM_CASES = [
    # (params, R, beta, norm, expected); all tolerances 5e-3
    (henon(), 0.01, 0.0, NormKind.LINF, 0.641),
    (henon(), 0.36, 0.0, NormKind.LINF, 0.694),
    (henon(), 0.01, 0.0, NormKind.L1, 0.6041),
    (henon(), 0.01, 0.9, NormKind.L1, 0.4513),
    (henon(), 0.01, 0.0, NormKind.L2SPECTRAL, 0.53),
    (henon(), 0.36, 0.0, NormKind.L2SPECTRAL, 0.613),
    (henon(), 0.01, 0.9, NormKind.L2SPECTRAL, 0.51),
    (henon(), 0.36, 0.9, NormKind.L2SPECTRAL, 0.6),
    (lozi(), 0.01, 0.0, NormKind.LINF, 0.584),
    (lozi(), 0.01, 0.0, NormKind.L1, 0.5),
    (lozi(), 0.01, 0.9, NormKind.L1, 0.31),
    (lozi(), 0.01, 0.0, NormKind.L2SPECTRAL, 0.44),
    (lozi(), 0.01, 0.9, NormKind.L2SPECTRAL, 0.42),
]


def check_threshold_table() -> CheckRow:
    bad = []
    for p, beta, exp, tol in LOCAL_CASES:
        got = local_threshold(p, BRANCH, beta)
        if abs(got - exp) > tol:
            bad.append(f"local {p.kind.value} beta={beta}: {got:.5f} vs {exp}")
    for p, R, beta, norm, exp in NORM_CASES:
        got = norm_threshold(p, BRANCH, R, beta, norm)
        if abs(got - exp) > 5e-3:
            bad.append(f"{norm.value} {p.kind.value} R={R} beta={beta}: {got:.5f} vs {exp}")
    n = len(LOCAL_CASES) + len(NORM_CASES)
    detail = f"{n - len(bad)}/{n} thresholds within tolerance" + (
        "; " + "; ".join(bad) if bad else ""
    )
    return _row("1-threshold-table", not bad, detail)


# --- criterion 2: stochastic analysis table --------------------------------

def _reference_models():
    """The worked stochastic parameter sets used across the analysis checks;
    entries 1, 2 and 7 are the cases with published values."""
    bern = NoiseDist.BERNOULLI_PM1
    unif = NoiseDist.UNIFORM_M1P1
    return [
        build_nu_model(henon(), BRANCH, 0.0, NormKind.LINF,
                       ControlChannel(0.44, 0.4279), ControlChannel(0.0)),
        build_nu_model(henon(), BRANCH, 0.0, NormKind.L1,
                       ControlChannel(0.4, 0.2862), ControlChannel(0.8)),
        build_nu_model(henon(), BRANCH, 0.0, NormKind.L1,
                       ControlChannel(0.44, 0.2862, unif), ControlChannel(0.9)),
        build_nu_model(henon(2.0, 0.5), BRANCH, 0.0, NormKind.L1,
                       ControlChannel(0.45, 0.416), ControlChannel(0.8)),
        build_nu_model(lozi(), BRANCH, 0.0, NormKind.LINF,
                       ControlChannel(0.414, 0.413, bern), ControlChannel(0.0)),
        build_nu_model(lozi(), BRANCH, 0.0, NormKind.L1,
                       ControlChannel(0.3, 0.2039), ControlChannel(0.8)),
        build_nu_model(lozi(), BRANCH, 0.0, NormKind.L1,
                       ControlChannel(0.27, 0.2332), ControlChannel(0.9)),
        build_nu_model(lozi(), BRANCH, 0.0, NormKind.L1,
                       ControlChannel(0.27, 0.2), ControlChannel(0.9, 0.55)),
    ]


def check_stochastic_table() -> CheckRow:
    bad = []
    models = _reference_models()
    got = expected_log_nu(models[1])
    if abs(got - math.log(0.9999)) > 5e-4:
        bad.append(f"henon l1 bernoulli: {got:.2e}")
    got = expected_log_nu(models[2])
    if abs(got - (-0.0251)) > 1e-3:
        bad.append(f"henon l1 uniform: {got:.5f}")
    got = expected_log_nu(models[7])
    if abs(got - 0.25 * math.log(0.9936)) > 5e-4:
        bad.append(f"lozi two-bernoulli: {got:.6f}")

    got = min_noise_for_stability(henon(), BRANCH, 0.0, NormKind.LINF, 0.44,
                                  NoiseDist.BERNOULLI_PM1, ControlChannel(0.0))
    if abs(got - 0.4279) > 1e-3:
        bad.append(f"min-noise henon linf: {got:.5f}")
    got = min_noise_for_stability(henon(2.0, 0.5), BRANCH, 0.0, NormKind.L1, 0.45,
                                  NoiseDist.BERNOULLI_PM1, ControlChannel(0.8))
    if abs(got - 0.416) > 2e-3:
        bad.append(f"min-noise henon(2,0.5) l1: {got:.5f}")

    for i, model in enumerate(models):
        diff = abs(expected_log_nu(model) - expected_log_nu(model, "quadrature"))
        if diff > 1e-9:
            bad.append(f"closed-vs-quadrature set {i}: diff={diff:.2e}")
    detail = "explog, min-noise and closed-vs-quadrature all within tolerance" if not bad else "; ".join(bad)
    return _row("2-stochastic-table", not bad, detail)


# --- criterion 3: bifurcation collapse points -------------------------------

COLLAPSE_CASES = [
    ("3a-henon-beta0", henon(), 0.0, 0.4, 0.6, 0.5164),
    ("3b-henon-beta09", henon(), 0.9, 0.35, 0.55, 0.444),
    ("3c-lozi-beta0", lozi(), 0.0, 0.3, 0.5, 0.412),
    ("3d-lozi-beta09", lozi(), 0.9, 0.2, 0.4, 0.301),
]


def collapse_point(params, beta, lo, hi, threads=None) -> Optional[float]:
    """The collapse point of the 200-alpha, 20-initial-state sweep, searched
    from the top alpha down: it runs only the cells at and above the first
    alpha that has not collapsed, and finds the same alpha as the full sweep."""
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0)
    return collapse_alpha(
        params, BRANCH, ControlChannel(beta), lo, hi, 200,
        default_init_grid(20), cfg, threads=threads,
    )


def check_collapse(name, params, beta, lo, hi, expected, threads=None) -> CheckRow:
    got = collapse_point(params, beta, lo, hi, threads)
    ok = got is not None and abs(got - expected) <= 5e-3
    detail = f"collapse at {got if got is None else round(got, 4)} vs {expected} +/- 0.005"
    return _row(name, ok, detail)


# --- criterion 4: noise-induced stabilization -------------------------------

#: Monte Carlo trials of each row of criteria 4 and 5.
TRIALS = 200


def _mc(params, x0, a1, l1, a2, l2, threads=None):
    cfg = SimConfig(initial=x0, steps=2000, seed=0)
    schedule = Stochastic(ControlChannel(a1, l1), ControlChannel(a2, l2))
    return mc_convergence(params, BRANCH, schedule, PointSet((x0,)), TRIALS, cfg, threads)


def check_noise_stabilization(threads=None) -> list[CheckRow]:
    rows = []
    h, lz = henon(), lozi()
    hx = Point2(0.3, 0.1)
    lx = Point2(-10.0, -15.0)

    rep = _mc(h, hx, 0.44, 0.0, 0.0, 0.0, threads)
    cfg = SimConfig(initial=hx, steps=2000, seed=0)
    single = run_trajectory(h, BRANCH, Stochastic(ControlChannel(0.44, 0.0), ControlChannel(0.0)), cfg, record="tail")
    ok = rep.fraction == 0.0 and single.outcome == Periodic(2)
    rows.append(_row("4a-henon-ell0", ok,
                     f"fraction={rep.fraction}, outcome={single.outcome} (want 0%, periodic(2))"))

    rep = _mc(h, hx, 0.44, 0.3, 0.0, 0.0, threads)
    rows.append(_row("4b-henon-ell03", rep.fraction >= 0.95,
                     f"fraction={rep.fraction} (want >= 0.95)"))

    cfg = SimConfig(initial=lx, steps=2000, seed=0)
    single = run_trajectory(lz, BRANCH, Stochastic(ControlChannel(0.4, 0.0), ControlChannel(0.0)), cfg, record="tail")
    rows.append(_row("4c-lozi-ell0", single.outcome == Periodic(2),
                     f"outcome={single.outcome} (want periodic(2))"))

    rep = _mc(lz, lx, 0.4, 0.15, 0.0, 0.0, threads)
    rows.append(_row("4d-lozi-ell015", rep.fraction >= 0.95,
                     f"fraction={rep.fraction} (want >= 0.95)"))

    rep = _mc(lz, lx, 0.27, 0.2, 0.9, 0.0, threads)
    rows.append(_row("4e-lozi-ell2-0", rep.fraction < 0.05,
                     f"fraction={rep.fraction} (want < 0.05)"))

    rep = _mc(lz, lx, 0.27, 0.2, 0.9, 0.55, threads)
    rows.append(_row("4f-lozi-ell2-055", rep.fraction >= 0.95,
                     f"fraction={rep.fraction} (want >= 0.95)"))
    return rows


# --- criterion 5: global Lozi bound -----------------------------------------

def _box_starts(lo: float, hi: float, n: int) -> PointSet:
    """n starts in the square [lo, hi]^2: start k maps the first (chi1, chi2)
    of trial stream k of seed 0 to lo + (chi + 1) / 2 * (hi - lo)."""

    def start(k: int) -> Point2:
        chi1, chi2 = next(control_pairs(_CHI, stream_for_trial(0, k).s, steps=1))
        return Point2(lo + (chi1 + 1.0) * 0.5 * (hi - lo), lo + (chi2 + 1.0) * 0.5 * (hi - lo))

    return PointSet(tuple(map(start, range(n))))


def check_global_lozi(threads=None) -> CheckRow:
    cfg = SimConfig(initial=Point2(0.0, 0.0), steps=2000, seed=0)
    starts = _box_starts(-100.0, 100.0, TRIALS)
    rep = mc_convergence(lozi(), BRANCH, Constant(0.59, 0.0), starts, TRIALS, cfg, threads)
    return _row("5-lozi-global-bound", rep.fraction == 1.0,
                f"fraction={rep.fraction} over {TRIALS} box-sampled starts (want 1.0)")


# --- criterion 6: property suites -------------------------------------------

#: Sampled cases of each of rows 6a, 6b and 6d.
SAMPLES = 10_000


def _rand_stream(seed: int):
    """Uniform draws on [-2, 2), one per call, from trial stream 0 of seed."""
    draws = chain.from_iterable(control_pairs(_CHI, stream_for_trial(seed, 0).s))
    return lambda: 2.0 * next(draws)


def check_norm_axioms() -> CheckRow:
    draw = _rand_stream(101)
    slack = 1.0 + 1e-12
    bad = 0
    for _ in range(SAMPLES):
        m = Matrix2(draw(), draw(), draw(), draw())
        n = Matrix2(draw(), draw(), draw(), draw())
        vx, vy = draw(), draw()
        wx, wy = mat_vec(m, vx, vy)
        mn = mat_mul(m, n)
        for norm in NormKind:
            nm = induced_norm(m, norm)
            if vec_norm(wx, wy, norm) > nm * vec_norm(vx, vy, norm) * slack + 1e-15:
                bad += 1
            if induced_norm(mn, norm) > nm * induced_norm(n, norm) * slack:
                bad += 1
    return _row("6a-norm-axioms", bad == 0, f"{SAMPLES} matrices x 3 norms, {bad} violations")


def check_trace_det_equivalence() -> CheckRow:
    draw = _rand_stream(202)
    bad = 0
    checked = 0
    for _ in range(SAMPLES):
        m = Matrix2(draw(), draw(), draw(), draw())
        mod = max(eigen_moduli(m))
        if abs(mod - 1.0) < 1e-10:
            continue  # boundary cases excluded by construction
        checked += 1
        if trace_det_stable(m) != (mod < 1.0):
            bad += 1
    return _row("6b-trace-det-eigen", bad == 0, f"{checked} matrices, {bad} disagreements")


def check_target_invariance() -> CheckRow:
    bad = 0
    worst = 0.0
    for params in (henon(), lozi()):
        target = fixed_point(params, BRANCH)
        for i in range(100):
            for j in range(100):
                d1, d2 = i / 100.0, j / 100.0
                p = vmtoc_step(params, target, d1, d2, target)
                err = max(abs(p.x - target.x), abs(p.y - target.y))
                worst = max(worst, err)
                if err >= 1e-14:
                    bad += 1
    return _row("6c-target-invariance", bad == 0,
                f"2 maps x 100x100 control grid, worst error {worst:.1e}")


def check_lipschitz_domination() -> CheckRow:
    draw = _rand_stream(303)
    bad = 0
    for params, R in ((henon(), 0.36), (lozi(), 0.2)):
        star = fixed_point(params, BRANCH)
        a = lipschitz_matrix(params, BRANCH, R)
        for _ in range(SAMPLES // 2):
            dx = 0.5 * R * draw()  # uniform in the max-norm ball of radius R
            dy = 0.5 * R * draw()
            p = Point2(star.x + dx, star.y + dy)
            f = map_step(params, p)
            b1 = a.a11 * abs(dx) + a.a12 * abs(dy) + 1e-12
            b2 = a.a21 * abs(dx) + a.a22 * abs(dy) + 1e-12
            if abs(f.x - star.x) > b1 or abs(f.y - star.y) > b2:
                bad += 1
    return _row("6d-lipschitz-domination", bad == 0, f"{SAMPLES} sampled states, {bad} violations")


def check_geometric_decay() -> CheckRow:
    """Certified worst-case contraction bounds every stochastic trajectory."""
    setups = [
        # (params, norm, R, ch1, ch2) with bounded_noise_safe on both channels
        (lozi(), NormKind.LINF, 0.4,
         ControlChannel(0.7, 0.1), ControlChannel(0.5, 0.3)),
        (henon(), NormKind.L1, 0.01,
         ControlChannel(0.8, 0.1), ControlChannel(0.9, 0.05)),
    ]
    bad = 0
    checks = 0
    for params, norm, R, ch1, ch2 in setups:
        star = fixed_point(params, BRANCH)
        alpha_star = norm_threshold(params, BRANCH, R, 0.0, norm)
        assert bounded_noise_safe(ch1.alpha, ch1.ell, alpha_star)
        worst = induced_norm(
            controlled_lipschitz(params, BRANCH, R,
                                 ch1.alpha - ch1.ell, ch2.alpha - ch2.ell),
            norm,
        )
        assert worst < 1.0
        draw = _rand_stream(404)
        for trial in range(120):
            # Random start inside the matching-norm ball of radius R.
            while True:
                dx, dy = 0.5 * R * draw(), 0.5 * R * draw()
                if 0.0 < vec_norm(dx, dy, norm) < R:
                    break
            cfg = SimConfig(initial=Point2(star.x + dx, star.y + dy), steps=120, seed=trial)
            traj = run_trajectory(params, BRANCH, Stochastic(ch1, ch2), cfg)
            d0 = vec_norm(dx, dy, norm)
            budget = d0
            for x, y in traj.points[1:]:
                budget *= worst
                if budget < 1e-13:
                    # below this the state's absolute rounding floor (~1e-16
                    # around an O(1) equilibrium) dominates the exact bound
                    break
                checks += 1
                if vec_norm(x - star.x, y - star.y, norm) > budget * (1.0 + 1e-9):
                    bad += 1
    return _row("6e-geometric-decay", bad == 0, f"{checks} per-step bounds, {bad} violations")


def _final_lln_mean(model, n: int, seed: int) -> float:
    """The mean of n draws of `log_nu_draws`, summed left to right from 0.0."""
    return reduce(add, islice(log_nu_draws(model, seed), n), 0.0) / n


def check_lln_band() -> CheckRow:
    n = 100_000
    bad = []
    models = [m for m in _reference_models() if m.regime_ok]
    for i, model in enumerate(models):
        expected = expected_log_nu(model)
        avg = _final_lln_mean(model, n, 7)
        _, sd = mc_log_nu(model, 20_000, seed=11)
        band = 4.0 * sd / math.sqrt(n)
        if abs(avg - expected) > band:
            bad.append(f"set {i}: |{avg - expected:.2e}| > {band:.2e}")
    detail = f"{len(models)} models x {n} draws within 4 sigma" + (
        "; " + "; ".join(bad) if bad else ""
    )
    return _row("6f-lln-band", not bad, detail)


# --- criterion 7: determinism ------------------------------------------------

def check_determinism() -> CheckRow:
    from .cli import render

    serial = render(["repro", "fig3d", "--threads", "1"])
    parallel = render(["repro", "fig3d", "--threads", "8"])
    return _row("7-determinism", serial == parallel,
                f"fig3d serial vs 8 threads: {'identical' if serial == parallel else 'DIFFER'}")


def run_all(threads: Optional[int] = None) -> list[CheckRow]:
    rows = [check_threshold_table(), check_stochastic_table()]
    for case in COLLAPSE_CASES:
        rows.append(check_collapse(*case, threads=threads))
    rows.extend(check_noise_stabilization(threads))
    rows.append(check_global_lozi(threads))
    rows.append(check_norm_axioms())
    rows.append(check_trace_det_equivalence())
    rows.append(check_target_invariance())
    rows.append(check_lipschitz_domination())
    rows.append(check_geometric_decay())
    rows.append(check_lln_band())
    rows.append(check_determinism())
    return rows
