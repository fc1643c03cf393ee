"""Metric definitions: units, direction, bounds and the end-to-end target
each per-layer metric should move.  BENCHMARK.json is generated from this
table (`python3 perfbench/run.py --spec`).
"""

from __future__ import annotations

RUN_SECONDS = 30

WORKLOAD_WHY = {
    "figures": (
        "Batch-figure path: repro fig1a (constant schedule, seed-independent data, "
        "output-bound) and fig8b (Bernoulli noise, engine-bound), each 4000 cells "
        "and an 800003-line CSV."
    ),
    "verify": (
        "The release gate users run (fixed seeds, so seed-independent); only it runs "
        "stability, the linalg2 suites and LLN draws. Pinned to one CPU: the pool's "
        "cross-CPU cost is only in unpinned_wall_s."
    ),
    "interactive": (
        "Passes over the 24 single-trajectory presets and the README one-liners "
        "(threshold, explog, minnoise: seed-independent), one run_command each, so "
        "per-call overhead dominates."
    ),
}

#: (name, unit, better, bound, what it is).  Times are in reference seconds
#: (pace.py): host seconds scaled by the host's speed at the time, measured
#: with a fixed kernel on the same CPU.  On a shared 2-vCPU virtual machine
#: the speed of the same job list drifted by up to 2x over minutes, so every
#: time metric keeps the 0.25 ceiling as its bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "fresh interpreter to chaosctl.cli imported and build_parser() done; median of fresh processes"),
    ("wall_s", "s", "lower", 0.25,
     "wall time of one pass over the job list, after setup, less hypervisor steal; "
     "median over passes"),
    ("cpu_s", "s", "lower", 0.25,
     "user+sys CPU time of the child process during one pass; median over passes"),
    ("peak_rss_mb", "MB", "lower", 0.05,
     "peak RSS of the child process since exec; median over children"),
    ("call_p50_ms", "ms", "lower", 0.25,
     "median per-command latency (per job on figures and verify)"),
    ("call_p90_ms", "ms", "lower", 0.25,
     "90th-percentile per-command latency, interpolated"),
]

VERIFY_ROWS = (
    "1-threshold-table", "2-stochastic-table",
    "3a-henon-beta0", "3b-henon-beta09", "3c-lozi-beta0", "3d-lozi-beta09",
    "4a-henon-ell0", "4b-henon-ell03", "4c-lozi-ell0", "4d-lozi-ell015",
    "4e-lozi-ell2-0", "4f-lozi-ell2-055", "5-lozi-global-bound",
    "6a-norm-axioms", "6b-trace-det-eigen", "6c-target-invariance",
    "6d-lipschitz-domination", "6e-geometric-decay", "6f-lln-band",
    "7-determinism",
)

#: (name, unit, better, target: the end-to-end metric and workload it should move)
PER_LAYER = [
    ("cli.self_s", "s", "lower",
     "wall_s and peak_rss_mb on figures (fig1a); call_p50_ms on interactive"),
    ("cli.rows_per_s", "1/s", "higher", "wall_s on figures"),
    ("cli.out_bytes", "B", "lower", "exact count; output must not change"),
    ("sim.self_s", "s", "lower", "wall_s on figures and verify"),
    ("stability.self_s", "s", "lower", "wall_s on verify; call_p90_ms on interactive"),
    ("verify.self_s", "s", "lower", "wall_s on verify"),
    ("sim.bifurcation_sweep_s", "s", "lower", "wall_s on figures and verify"),
    ("sim.cells_per_s", "1/s", "higher", "wall_s on figures and verify"),
    ("sim.mc_convergence_s", "s", "lower", "wall_s on verify"),
    ("sim.trials_per_s", "1/s", "higher", "wall_s on verify"),
    ("sim.run_trajectory_s", "s", "lower", "call_p50_ms on interactive"),
    ("sim.limit_set_s", "s", "lower", "call_p50_ms on interactive"),
    ("sim.lln_average_s", "s", "lower", "wall_s on verify"),
    ("stability.mc_log_nu_s", "s", "lower", "wall_s on verify"),
    ("stability.expected_log_nu_s", "s", "lower", "call_p90_ms on interactive"),
    ("stability.min_noise_s", "s", "lower", "call_p90_ms on interactive"),
    *[(f"verify.row_s.{row}", "s", "lower", "wall_s on verify") for row in VERIFY_ROWS],
    ("trace_overhead_ratio", "ratio", "lower",
     "none; traced / untraced pass time in host seconds, minus 1"),
    ("host_wall_s", "s", "lower",
     "wall_s in host seconds, steal included, as a clock on this machine showed it "
     "(untraced child)"),
    ("host_speed", "ratio", "higher",
     "none; the host's speed during the untraced child, in reference seconds per "
     "host second (pace.py); it divides host_wall_s into wall_s"),
    ("unpinned_wall_s", "s", "lower",
     "wall_s on figures and verify as users run it: a child on every CPU, so it "
     "includes the default pool's cross-CPU GIL hand-offs that the pinned wall_s "
     "hides"),
    ("trace_self_coverage", "ratio", "higher",
     "none; sum of span self times / traced wall_s, should be near 1"),
    ("sim.steps_per_s.const-henon", "1/s", "higher",
     "wall_s on verify (rows 3a-3d) and figures (fig1a)"),
    ("sim.steps_per_s.const-lozi", "1/s", "higher",
     "wall_s on verify (rows 3a-3d) and figures (fig1a)"),
    ("sim.steps_per_s.stoch-bernoulli-henon", "1/s", "higher",
     "wall_s on figures (fig8b) and verify (rows 4 and 5)"),
    ("sim.steps_per_s.stoch-uniform-lozi", "1/s", "higher",
     "wall_s on figures (fig8b) and verify (rows 4 and 5)"),
    ("control.draws_per_s", "1/s", "higher", "the stochastic steps/s probes"),
    ("control.streams_per_s", "1/s", "higher", "the stochastic steps/s probes"),
    ("sim.classify_tail_us", "us", "lower", "wall_s on figures and verify"),
    ("cli.build_parser_ms", "ms", "lower", "call_p50_ms and setup_s on interactive"),
    ("linalg2.induced_norm_per_s", "1/s", "higher", "wall_s on verify (row 6a)"),
    ("maps.map_step_per_s", "1/s", "higher", "wall_s on verify (row 6d)"),
    ("sim.thread_speedup", "ratio", "higher",
     "scaling of --threads; absent once mc_convergence takes no threads"),
    ("error_rate", "ratio", "lower",
     "failed or mismatched jobs / jobs attempted; must stay 0"),
]


def spec() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
