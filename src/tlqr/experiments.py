"""Wiring from experiment configurations to planned policies and studies."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, epsilon_grid
from .dynamics import KinematicCar
from .exceptions import InsufficientData
from .large_deviations import ExitEstimate, RateFit, estimate_exit_probability, fit_rate
from .lqr import LqrWeights, TrackingPolicy, design_tracking_policy
from .planner import GoalCost, PlannerReport, goal_tracking_cost, optimize_nominal
from .simulate import _CTX_LDP, CLOSED_LOOP, OPEN_LOOP, SweepRow, derive_seed, sweep_epsilon


def build_model(config: ExperimentConfig) -> KinematicCar:
    m = config.model
    return KinematicCar(
        wheelbase=m.wheelbase,
        step_period=m.dt,
        v_max=m.v_max,
        phi_max=m.phi_max,
    )


@dataclass(frozen=True, eq=False)
class PlannedExperiment:
    """Everything derived from one config: goal cost, planner report and policy.

    ``cost`` is the goal cost the nominal minimizes; the cost-error analysis
    linearizes it along the nominal. The policy carries the model
    (``policy.model``) and the planned nominal (``policy.nominal``).
    """

    config: ExperimentConfig
    cost: GoalCost
    report: PlannerReport
    policy: TrackingPolicy


def plan_experiment(config: ExperimentConfig) -> PlannedExperiment:
    """Optimize the nominal trajectory and synthesize the tracking policy."""
    model = build_model(config)
    p = config.planner
    cost = goal_tracking_cost(
        model, config.x_g, effort_weight=p.r_u, goal_weight=p.r_g, bound_weight=p.r_b
    )
    trajectory, report = optimize_nominal(
        model,
        cost,
        np.asarray(config.x0),
        horizon=config.horizon,
        tolerance=p.tolerance,
        max_iters=p.max_iters,
    )
    weights = LqrWeights(config.lqr.wx, config.lqr.wu)
    policy = design_tracking_policy(model, trajectory, weights)
    return PlannedExperiment(config=config, cost=cost, report=report, policy=policy)


def run_sweep(
    planned: PlannedExperiment,
    modes=(CLOSED_LOOP, OPEN_LOOP),
    grid=None,
) -> tuple[SweepRow, ...]:
    """NMSE sweep rows over the configured (or overridden) epsilon grid."""
    cfg = planned.config.sweep
    if grid is None:
        grid = epsilon_grid(cfg.eps_start, cfg.eps_step, cfg.eps_end)
    return sweep_epsilon(
        planned.policy,
        grid,
        cfg.n_runs,
        planned.config.master_seed,
        modes=modes,
    )


def run_exit_study(
    planned: PlannedExperiment,
) -> tuple[list[ExitEstimate], RateFit | None]:
    """Exit-probability estimates over the configured grid plus the rate fit.

    Returns (estimates, fit); fit is None when fewer than three estimates
    fall strictly inside (0, 1).
    """
    cfg = planned.config.ldp
    estimates = [
        estimate_exit_probability(
            planned.policy,
            cfg.delta,
            eps,
            n_runs=cfg.n_runs,
            seed=derive_seed(planned.config.master_seed, _CTX_LDP, i),
        )
        for i, eps in enumerate(cfg.eps_grid)
    ]
    try:
        fit = fit_rate(estimates)
    except InsufficientData:
        fit = None
    return estimates, fit

