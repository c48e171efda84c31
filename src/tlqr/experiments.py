"""Wiring from an experiment configuration to its planned policy and its exit study.

Each study seeds its own runs; the command line calls ``simulate.sweep_epsilon``
on the grid it picks, and ``run_exit_study`` calls ``large_deviations.exit_study``.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import ExperimentConfig
from .dynamics import KinematicCar
from .large_deviations import ExitEstimate, RateFit, exit_study
from .lqr import LqrWeights, TrackingPolicy, design_tracking_policy
from .planner import GoalCost, PlannerReport, goal_tracking_cost, optimize_nominal


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


class RunStats:
    """Where one run's time went: wall and CPU seconds per stage, and the planner's work.

    Stage seconds add up when a stage is entered again; CPU seconds are
    ``time.process_time``'s. ``as_dict`` is the ``stats`` entry of the run
    manifest, the one output that depends on the clock.
    """

    def __init__(self) -> None:
        self.stage_seconds: dict[str, float] = {}
        self.stage_cpu_seconds: dict[str, float] = {}
        self.planner_iterations: int | None = None
        self.planner_seconds = self.planner_cpu_seconds = 0.0

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + elapsed
            self.stage_cpu_seconds[name] = self.stage_cpu_seconds.get(name, 0.0) + cpu

    def as_dict(self) -> dict:
        out: dict = {"stage_s": dict(self.stage_seconds), "stage_cpu_s": dict(self.stage_cpu_seconds)}
        iterations = self.planner_iterations
        if iterations is not None:
            out["planner"] = {
                "iterations": iterations,
                "seconds": self.planner_seconds,
                "cpu_seconds": self.planner_cpu_seconds,
                "ms_per_iter": 1e3 * self.planner_seconds / iterations if iterations else 0.0,
            }
        return out


def plan_experiment(config: ExperimentConfig, stats: RunStats | None = None) -> PlannedExperiment:
    """Optimize the nominal trajectory and synthesize the tracking policy.

    With ``stats``, records the "plan" stage and the planner's iterations and
    wall and CPU seconds.
    """
    stats = RunStats() if stats is None else stats
    with stats.stage("plan"):
        model = build_model(config)
        p = config.planner
        cost = goal_tracking_cost(
            model, config.x_g, effort_weight=p.r_u, goal_weight=p.r_g, bound_weight=p.r_b
        )
        start, cpu_start = time.perf_counter(), time.process_time()
        trajectory, report = optimize_nominal(
            model,
            cost,
            np.asarray(config.x0),
            horizon=config.horizon,
            tolerance=p.tolerance,
            max_iters=p.max_iters,
        )
        stats.planner_seconds = time.perf_counter() - start
        stats.planner_cpu_seconds = time.process_time() - cpu_start
        stats.planner_iterations = report.iterations
        weights = LqrWeights(config.lqr.wx, config.lqr.wu)
        policy = design_tracking_policy(model, trajectory, weights)
    return PlannedExperiment(config=config, cost=cost, report=report, policy=policy)


def run_exit_study(
    planned: PlannedExperiment,
) -> tuple[list[ExitEstimate], RateFit | None]:
    """Exit-probability estimates over the configured grid plus their rate fit.

    Returns (estimates, fit); fit is None when fewer than three estimates
    fall strictly inside (0, 1).
    """
    cfg = planned.config.ldp
    return exit_study(planned.policy, cfg.delta, cfg.eps_grid, cfg.n_runs, planned.config.master_seed)

