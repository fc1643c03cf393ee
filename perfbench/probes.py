"""Layer probes: fixed-input calls into chaosctl's public functions.

Each probe times a fixed amount of work several times and reports the
median rate.  The inputs do not depend on the workload seed.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time

from chaosctl.cli import build_parser
from chaosctl.control import (
    Constant,
    ControlChannel,
    NoiseDist,
    RngState,
    Stochastic,
    next_rand,
    stream_for_trial,
)
from chaosctl.linalg2 import NormKind, induced_norm
from chaosctl.maps import Branch, Matrix2, Point2, fixed_point, henon, lozi, map_step
from chaosctl.sim import PointSet, SimConfig, classify_tail, mc_convergence, run_trajectory

REPS = 5

#: Configurations that neither converge nor escape, so every step runs.
STEP_PROBES = {
    "const-henon": (henon(), Constant(0.3, 0.0), 50_000),
    "const-lozi": (lozi(), Constant(0.2, 0.0), 50_000),
    "stoch-bernoulli-henon": (
        henon(),
        Stochastic(ControlChannel(0.3, 0.2861), ControlChannel(0.8)),
        20_000,
    ),
    "stoch-uniform-lozi": (
        lozi(),
        Stochastic(ControlChannel(0.2, 0.2, NoiseDist.UNIFORM_M1P1), ControlChannel(0.9)),
        20_000,
    ),
}


def _median_seconds(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _steps(params, schedule, steps: int) -> None:
    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=steps, seed=0)
    traj = run_trajectory(params, Branch.PLUS, schedule, cfg, record="tail")
    if traj.steps_run != steps:
        raise RuntimeError(f"probe stopped after {traj.steps_run} of {steps} steps")


def _draws(n: int) -> None:
    state = RngState(1)
    for _ in range(n):
        state, _ = next_rand(state)


def _streams(n: int) -> None:
    for k in range(n):
        stream_for_trial(0, k)


def _map_steps(n: int) -> None:
    params = henon()
    p = Point2(0.1, 0.1)
    for _ in range(n):
        p = map_step(params, p)


def _matrices(n: int) -> list:
    state = RngState(2)
    out = []
    for _ in range(n):
        vals = []
        for _ in range(4):
            state, z = next_rand(state)
            vals.append(4.0 * ((z >> 11) * 2.0**-53) - 2.0)
        out.append(Matrix2(*vals))
    return out


def thread_speedup(cpus: set):
    """mc_convergence trials/s at threads=2 over threads=1 on `cpus`, or None.

    None once `mc_convergence` no longer takes `threads`.
    """
    if "threads" not in inspect.signature(mc_convergence).parameters:
        return None
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return _thread_ratio()
    finally:
        os.sched_setaffinity(0, pinned)


def _thread_ratio() -> float:
    params, x0 = henon(), Point2(0.3, 0.1)
    schedule = Stochastic(ControlChannel(0.44, 0.3), ControlChannel(0.0))
    cfg = SimConfig(initial=x0, steps=2000, seed=0)

    def run(threads):
        return lambda: mc_convergence(
            params, Branch.PLUS, schedule, PointSet((x0,)), 40, cfg, threads=threads
        )

    return _median_seconds(run(1)) / _median_seconds(run(2))


def run_probes(cpus: set) -> dict:
    """Every probe's value, by metric name; the thread probe runs on `cpus`."""
    out = {}
    for name, (params, schedule, steps) in STEP_PROBES.items():
        out[f"sim.steps_per_s.{name}"] = steps / _median_seconds(
            lambda: _steps(params, schedule, steps)
        )
    out["control.draws_per_s"] = 50_000 / _median_seconds(lambda: _draws(50_000))
    out["control.streams_per_s"] = 25_000 / _median_seconds(lambda: _streams(25_000))

    cfg = SimConfig(initial=Point2(0.1, 0.1), steps=700, seed=0)
    traj = run_trajectory(henon(), Branch.PLUS, Constant(0.0, 0.0), cfg, record="tail")
    target = fixed_point(henon(), Branch.PLUS)
    if len(traj.points) != cfg.record_tail or str(classify_tail(traj, target, cfg)) != "bounded":
        raise RuntimeError("classify_tail probe needs a bounded full tail")
    out["sim.classify_tail_us"] = 1e6 / 200 * _median_seconds(
        lambda: [classify_tail(traj, target, cfg) for _ in range(200)]
    )

    out["cli.build_parser_ms"] = 1e3 / 20 * _median_seconds(
        lambda: [build_parser() for _ in range(20)]
    )
    mats = _matrices(2_000)
    out["linalg2.induced_norm_per_s"] = len(mats) / _median_seconds(
        lambda: [induced_norm(m, NormKind.L2SPECTRAL) for m in mats]
    )
    out["maps.map_step_per_s"] = 50_000 / _median_seconds(lambda: _map_steps(50_000))
    speedup = thread_speedup(cpus)
    if speedup is not None:
        out["sim.thread_speedup"] = speedup
    return out
