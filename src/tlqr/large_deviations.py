"""Small-noise exit statistics for the feedback-compensated system.

The Freidlin-Wentzell action functional penalizes a path's velocity
deviation from the drift,

    S(phi) = 1 / (2 eps^2) * integral |phi_dot - b(t, phi)|^2 dt,

discretized here as a left-endpoint Riemann sum on the controller's step
grid. For the tracked system the drift is the feedback-compensated one-step
map converted to a rate, so the nominal trajectory has exactly zero action.
Both the drift and the exit study run the policy on the plant it carries
(``policy.model``). Exit probabilities from a radius-delta tube around the
nominal decay like exp(-rate / eps^2) as the noise level drops;
``fit_rate`` checks that signature by regressing log p on 1 / eps^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._stats import linear_fit, wilson_interval
from .dynamics import Array
from .exceptions import InsufficientData
from .lqr import TrackingPolicy, feedback_control
from .simulate import _CTX_EXIT, CLOSED_LOOP, derive_seed, rollout_states


@dataclass(frozen=True, eq=False)
class DriftField:
    """Per-step drift rate of a (possibly time-varying) discrete system.

    ``rate(t, x)`` returns the state increment per unit time at step t on
    a grid of period ``dt``.
    """

    rate: Callable[[int, Array], Array]
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def tracking_drift(policy: TrackingPolicy) -> DriftField:
    """Drift of the closed-loop tracked system: (f(x, u_fb(t, x)) - x) / dt.

    The rate is defined for the policy's steps t < K; later steps raise
    ``ValueError`` from :func:`~tlqr.lqr.feedback_control`.
    """
    model = policy.model
    dt = model.step_period

    def rate(t: int, x: Array) -> Array:
        u = feedback_control(policy, t, x)
        return (model.step(x, u) - x) / dt

    return DriftField(rate=rate, dt=dt)


def action_functional(field: DriftField, path: Array, epsilon: float) -> float:
    """Discrete action of a path: dt / (2 eps^2) * sum |dphi/dt - rate|^2.

    ``path`` is a (T+1, n) array of states on the drift's grid (period
    ``field.dt``); path[0] is the declared initial state.
    """
    path = np.atleast_2d(np.asarray(path, dtype=float))
    if len(path) < 2:
        raise ValueError("path needs at least two points")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    total = 0.0
    for t in range(len(path) - 1):
        resid = (path[t + 1] - path[t]) / field.dt - field.rate(t, path[t])
        total += float(resid @ resid)
    return total * field.dt / (2.0 * epsilon**2)


@dataclass(frozen=True)
class ExitEstimate:
    """Monte Carlo estimate of leaving the delta-tube at any step of the horizon."""

    delta: float
    epsilon: float
    n_runs: int
    n_exits: int
    p_hat: float
    wilson_low: float
    wilson_high: float

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "epsilon": self.epsilon,
            "n_runs": self.n_runs,
            "n_exits": self.n_exits,
            "p_hat": self.p_hat,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
        }


def estimate_exit_probability(
    policy: TrackingPolicy,
    delta: float,
    epsilon: float,
    n_runs: int = 1000,
    seed: int = 0,
) -> ExitEstimate:
    """Fraction of closed-loop runs whose deviation ever exceeds delta.

    A run exits when max_{s <= K} |x_s - x_nom_s| > delta
    (Euclidean norm on the full state). All runs step together through
    :func:`~tlqr.simulate.rollout_states`. Per-run seeds derive from the given
    seed, so estimates with the same seed share trajectories exactly.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    seeds = [derive_seed(seed, _CTX_EXIT, j) for j in range(n_runs)]
    states = rollout_states(policy, epsilon, CLOSED_LOOP, seeds)
    dev = np.linalg.norm(states - policy.nominal.states, axis=2)
    exits = int(np.count_nonzero(dev.max(axis=1) > delta))
    p_hat = exits / n_runs
    low, high = wilson_interval(exits, n_runs)
    return ExitEstimate(
        delta=delta,
        epsilon=epsilon,
        n_runs=n_runs,
        n_exits=exits,
        p_hat=p_hat,
        wilson_low=low,
        wilson_high=high,
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log p_hat against 1 / eps^2."""

    slope: float
    intercept: float
    r_squared: float
    n_used: int

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "n_used": self.n_used,
        }


def fit_rate(estimates: Sequence[ExitEstimate]) -> RateFit:
    """Check the exponential decay signature of the exit probabilities.

    Only estimates with 0 < p_hat < 1 are usable; fewer than three raise
    :class:`InsufficientData`. A negative slope magnitude approximates the
    minimal action over exiting paths.
    """
    usable = [e for e in estimates if 0.0 < e.p_hat < 1.0]
    if len(usable) < 3:
        raise InsufficientData(
            f"need >= 3 estimates with 0 < p_hat < 1, have {len(usable)}"
        )
    x = np.array([1.0 / e.epsilon**2 for e in usable])
    y = np.array([np.log(e.p_hat) for e in usable])
    slope, intercept, r2 = linear_fit(x, y)
    return RateFit(slope=slope, intercept=intercept, r_squared=r2, n_used=len(usable))
