"""Target-oriented control of the Henon and Lozi maps.

Library layout:

- maps:      map stepping, equilibria, local Lipschitz matrices
- linalg2:   2x2 induced norms and the trace-determinant stability test
- control:   the control schedule, the seeded noise source, the controlled step
- stability: deterministic thresholds, expected-log-contraction analysis and
             its law-of-large-numbers diagnostics
- sim:       trajectory engine, sweeps, limit sets, Monte Carlo experiments
- cli:       the `chaosctl` command-line front end with figure presets
"""

from .maps import (
    Branch,
    DomainError,
    MapKind,
    MapParams,
    Matrix2,
    Point2,
    fixed_point,
    henon,
    lipschitz_matrix,
    lozi,
    map_step,
)
from .linalg2 import NormKind, induced_norm, trace_det_stable, vec_norm
from .control import (
    Constant,
    ControlChannel,
    InvalidControl,
    NoiseDist,
    RngState,
    Stochastic,
    control_pairs,
    next_rand,
    noise_pairs,
    scramble,
    stream_for_trial,
    vmtoc_step,
)
from .stability import (
    NoWindow,
    NuModel,
    Unstabilizable,
    bounded_noise_safe,
    build_nu_model,
    controlled_jacobian,
    controlled_lipschitz,
    expected_log_nu,
    lln_average,
    local_threshold,
    min_noise_for_stability,
    norm_threshold,
)
from .sim import (
    Bounded,
    BoxSampler,
    Converged,
    Escaped,
    InsufficientData,
    MonteCarloReport,
    Outcome,
    Periodic,
    PointSet,
    SimConfig,
    SweepResult,
    Trajectory,
    bifurcation_sweep,
    classify_tail,
    collapse_alpha,
    default_init_grid,
    limit_set,
    mc_convergence,
    run_trajectory,
    wilson_interval,
)

__version__ = "0.1.0"
