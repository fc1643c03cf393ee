"""Target-oriented control of the Henon and Lozi maps.

Library layout:

- maps:      map stepping, equilibria, local Lipschitz matrices
- linalg2:   2x2 induced norms and the trace-determinant stability test
- control:   the control schedule, the seeded noise source, the controlled step
- stability: deterministic thresholds and expected-log-contraction analysis
- sim:       trajectory engine, sweeps, limit sets, Monte Carlo experiments
- verify:    the acceptance table; `chaosctl verify` imports it, and
             importing the package does not
- cli:       the `chaosctl` command-line front end with figure presets

Every record is an immutable named tuple.
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
    local_threshold,
    min_noise_for_stability,
    norm_threshold,
)
from .sim import (
    Bounded,
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
    alpha_grid,
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
