"""Trajectory-optimized LQR toolkit.

Plan an open-loop nominal trajectory for a nonlinear system, synthesize a
finite-horizon time-varying LQR tracking law around it, and verify the
small-noise behavior of the combined design: linear error propagation,
zero-mean first-order cost error, NMSE decay, and exponential exit-rate
scaling.
"""
from .config import (
    ExperimentConfig,
    FULL_GRID,
    config_hash,
    default_config,
    epsilon_grid,
    load_config,
    parse_config,
)
from .dynamics import KinematicCar, NominalTrajectory
from .error_analysis import (
    CostErrorStats,
    cost_error_sensitivities,
    cost_error_statistics,
    first_order_cost_error,
    linear_deviations,
)
from .exceptions import (
    BoundViolation,
    ConfigError,
    DomainError,
    NumericalFailure,
)
from .experiments import (
    PlannedExperiment,
    build_model,
    plan_experiment,
    run_exit_study,
    run_sweep,
)
from .large_deviations import (
    ExitEstimate,
    RateFit,
    action_functional,
    estimate_exit_probability,
    exit_study,
    fit_rate,
)
from .lqr import (
    LqrWeights,
    LtvSystem,
    TrackingPolicy,
    closed_loop_matrices,
    design_tracking_policy,
    feedback_control,
    linearize_along,
    riccati_backward,
)
from .planner import (
    CostLinearization,
    GoalCost,
    PlannerReport,
    adjoint_sweep,
    cost_gradient,
    goal_tracking_cost,
    linearize_cost,
    nominal_cost,
    optimize_nominal,
)
from .simulate import (
    CLOSED_LOOP,
    OPEN_LOOP,
    SweepRow,
    derive_seed,
    nmse_values,
    noise_scale,
    noise_sigma,
    rollout_states,
    sweep_epsilon,
)

__version__ = "0.3.0"
