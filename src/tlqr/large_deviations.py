"""Small-noise exit statistics for the feedback-compensated system.

The tracked closed loop steps x_{t+1} = f(x_t, u_fb(t, x_t)) + w_t, with
f the Euler step ``policy.model.step_rows``, u_fb the clamped tracking law
(:func:`~tlqr.lqr.feedback_rows`) and w_t ~ N(0, sigma^2 I), sigma from
:func:`~tlqr.simulate.noise_sigma`, the one noise rule of the sweep and the
exit study. The Freidlin-Wentzell action of a path is the noise energy it
needs,

    S(x) = sum_t |x_{t+1} - f(x_t, u_fb(t, x_t))|^2 / (2 sigma^2),

so the nominal trajectory has exactly zero action and a path the batched
kernel sampled has action sum_t |w_t|^2 / (2 sigma^2). Exit probabilities
from a radius-delta tube around the nominal decay like exp(-rate / eps^2)
as the noise level drops; ``fit_rate`` checks that signature by regressing
log p on 1 / eps^2. ``exit_study`` is the whole study: it seeds one
estimate per noise level from the master seed and fits their rate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Array
from .lqr import TrackingPolicy, feedback_rows
from .simulate import _CTX_EXIT, _CTX_LDP, CLOSED_LOOP, derive_seed, noise_sigma, seeded_runs

# Standard normal 97.5% quantile, for 95% two-sided intervals.
Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%, two-sided) for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + Z95 * Z95 / trials
    center = (p + Z95 * Z95 / (2 * trials)) / denom
    half = Z95 * np.sqrt(p * (1 - p) / trials + Z95 * Z95 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def action_functional(policy: TrackingPolicy, path: Array, epsilon: float) -> float:
    """Noise energy of a path under the tracked closed loop, on ``noise_sigma``'s scale.

    ``path`` is a (T+1, n) array of states with 1 <= T <= K; path[0] is the
    declared initial state. A path with all residuals zero has action 0
    even when sigma is 0 (all planned controls zero); any other path then
    has action +inf.

    The residual form is trustworthy only on paths of moderate size. On a
    path that blew up at the singular steering clamp (|theta| ~ 3e15),
    x_{t+1} - f(x_t, u) cancels catastrophically: one such closed-loop run
    gave an action 10.5% above the noise energy it was drawn with.
    """
    path = np.atleast_2d(np.asarray(path, dtype=float))
    n, k = policy.model.state_dim, policy.horizon
    if path.ndim != 2 or path.shape[1] != n:
        raise ValueError(f"path has shape {path.shape}, expected (T+1, {n})")
    if not 2 <= len(path) <= k + 1:
        raise ValueError(f"path needs 2 to K+1 = {k + 1} points, got {len(path)}")
    if not epsilon > 0:  # negated, so that NaN fails too
        raise ValueError("epsilon must be positive")
    x = path[:-1].T
    controls = np.empty((policy.model.control_dim, x.shape[1]))
    for t in range(x.shape[1]):
        feedback_rows(policy, t, x[:, t : t + 1], controls[:, t : t + 1])
    resid = path[1:] - policy.model.step_rows(x, controls, np.empty(x.shape)).T
    energy = float(np.sum(resid * resid))
    if energy == 0.0:
        return 0.0
    variance = noise_sigma(policy, epsilon) ** 2
    return energy / (2.0 * variance) if variance > 0.0 else float("inf")


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


def estimate_exit_probability(
    policy: TrackingPolicy,
    delta: float,
    epsilon: float,
    n_runs: int = 1000,
    seed: int = 0,
) -> ExitEstimate:
    """Fraction of closed-loop runs whose deviation ever exceeds delta.

    A run exits when max_{s <= K} |x_s - x_nom_s| > delta
    (Euclidean norm on the full state), or when its deviation is NaN, as it
    is when the noise is so large that the run overflows. Runs go through
    :func:`~tlqr.simulate.seeded_runs`. Per-run seeds derive from the given
    seed, so estimates with the same seed share trajectories exactly. Each
    run's largest deviation is taken in place in its call's states by the
    operations ``np.linalg.norm(..., axis=2)`` applies to real input: square,
    ``np.add.reduce`` over the state axis, square root.
    """
    if not delta > 0:  # negated, so that NaN fails too
        raise ValueError("delta must be positive")

    def max_deviation(states: Array) -> Array:
        dev = np.subtract(states, policy.nominal.states, out=states)
        return np.sqrt(np.add.reduce(np.multiply(dev, dev, out=dev), axis=2)).max(axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        worst = seeded_runs(policy, CLOSED_LOOP, [epsilon], n_runs, (seed, _CTX_EXIT), max_deviation)
    exits = int(np.count_nonzero(~(worst <= delta)))  # NaN exits
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


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared).

    r_squared is 1.0 for an exact fit of constant data (zero total variance).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values identical")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_rate(epsilons: Sequence[float], p_hats: Sequence[float]) -> RateFit | None:
    """Check the exponential decay signature of exit probabilities p_hats over epsilons.

    Only pairs with 0 < p_hat < 1 are usable; with fewer than three the fit
    is None. Lists of unequal length raise ``ValueError``. A negative slope
    magnitude approximates the minimal action over exiting paths.
    """
    usable = [(eps, p) for eps, p in zip(epsilons, p_hats, strict=True) if 0.0 < p < 1.0]
    if len(usable) < 3:
        return None
    x = np.array([1.0 / eps**2 for eps, _ in usable])
    y = np.array([np.log(p) for _, p in usable])
    slope, intercept, r2 = linear_fit(x, y)
    return RateFit(slope=slope, intercept=intercept, r_squared=r2, n_used=len(usable))


def exit_study(
    policy: TrackingPolicy, delta: float, epsilons: Sequence[float], n_runs: int, master_seed: int
) -> tuple[list[ExitEstimate], RateFit | None]:
    """One exit estimate per noise level, in order, and the rate fit of their p_hat.

    Estimate i draws its runs from seed ``derive_seed(master_seed, _CTX_LDP, i)``.
    """
    estimates = [
        estimate_exit_probability(policy, delta, eps, n_runs, derive_seed(master_seed, _CTX_LDP, i))
        for i, eps in enumerate(epsilons)
    ]
    return estimates, fit_rate(epsilons, [e.p_hat for e in estimates])
