"""Stochastic closed-loop / open-loop execution and NMSE sweep experiments.

Noise enters additively with per-component standard deviation
epsilon * max_t |u_nom_t|_2. Every run draws its noise from its own
generator, seeded by a counter-style mix of (master seed, grid index, run
index, mode), so results are bit-reproducible and do not depend on how runs
are grouped.

Every Monte Carlo study goes through one batched kernel,
:func:`rollout_states`, which steps all runs of a batch together with one
array operation per time index. It runs a :class:`~tlqr.lqr.TrackingPolicy`
on the plant it carries (``policy.model``): closed loop applies the clamped
tracking law :func:`~tlqr.lqr.feedback_control` to the whole batch, so a
run's states do not depend on its batch and match a scalar per-run loop over
the same law bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Array, NoiseModel, NominalTrajectory
from .exceptions import NumericalFailure
from .lqr import TrackingPolicy, feedback_control

CLOSED_LOOP = "closed_loop"
OPEN_LOOP = "open_loop"
_MODE_TAGS = {CLOSED_LOOP: 0, OPEN_LOOP: 1}

# Context tags keep seed streams of different experiments disjoint.
_CTX_SWEEP = 1  # NMSE sweep runs
_CTX_EXIT = 2  # runs of one exit-probability estimate
_CTX_LDP = 3  # one estimate per point of the exit study's epsilon grid
_CTX_COST_ERROR = 4  # cost-error samples of the costerror suite
_CTX_RECONSTRUCTION = 5  # noise draws of its sensitivity-form reconstruction check


def derive_seed(master_seed: int, *tags: int) -> int:
    """Deterministic 64-bit sub-seed from a master seed and integer tags."""
    ss = np.random.SeedSequence((master_seed,) + tags)
    return int(ss.generate_state(1, np.uint64)[0])


def noise_scale(controls: Array) -> float:
    """Reference noise scale: the largest Euclidean control norm."""
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2 or len(controls) == 0:
        raise ValueError("controls must be a nonempty (K, n_u) array")
    return float(np.linalg.norm(controls, axis=1).max())


def rollout_states(
    policy: TrackingPolicy, epsilon: float, mode: str, seeds: Sequence[int]
) -> Array:
    """States (N, K+1, n) of N runs executed together, one per seed.

    Run j draws its (K, n) noise from ``default_rng(seeds[j])`` through
    :class:`~tlqr.dynamics.NoiseModel`. Closed loop applies the clamped
    feedback law; open loop applies the planned controls, which are
    bound-checked once per batch.
    """
    if mode not in _MODE_TAGS:
        raise ValueError(f"unknown mode '{mode}'")
    model, nominal = policy.model, policy.nominal
    k, n = policy.horizon, model.state_dim
    noise = NoiseModel(epsilon, noise_scale(nominal.controls), n)
    if mode == OPEN_LOOP:
        for u in nominal.controls:
            model.validate_control(u)
    noises = np.empty((len(seeds), k, n))
    for j, seed in enumerate(seeds):
        noises[j] = noise.sample(np.random.default_rng(seed), k)

    states = np.empty((len(seeds), k + 1, n))
    states[:, 0] = nominal.states[0]
    for t in range(k):
        x = states[:, t]
        if mode == CLOSED_LOOP:
            u = feedback_control(policy, t, x)
        else:
            u = np.broadcast_to(nominal.controls[t], (len(seeds), model.control_dim))
        states[:, t + 1] = model.transition(x, u) + noises[:, t]
    return states


def nmse_values(planned: NominalTrajectory, states: Array) -> Array:
    """Per-run normalized mean squared error, in percent.

    ``states`` is an (N, K+1, n) array as returned by :func:`rollout_states`.
    Both trajectories are stacked into single vectors (initial state
    included); the value is |planned - run|^2 / |planned|^2 * 100.
    """
    denom = float(np.sum(planned.states**2))
    if denom == 0.0:
        raise ValueError("planned trajectory has zero norm")
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[1:] != planned.states.shape:
        raise ValueError("run horizon does not match the planned trajectory")
    diff = states - planned.states
    return np.sum(diff.reshape(len(states), -1) ** 2, axis=1) / denom * 100.0


@dataclass(frozen=True)
class SweepRow:
    """Per-epsilon Monte Carlo summary; missing modes hold NaN."""

    epsilon: float
    avg_nmse_closed: float
    avg_nmse_open: float
    sd_closed: float
    sd_open: float
    n_runs: int


def _mode_stats(
    policy: TrackingPolicy,
    epsilon: float,
    grid_index: int,
    mode: str,
    n_runs: int,
    master_seed: int,
) -> tuple[float, float]:
    seeds = [
        derive_seed(master_seed, _CTX_SWEEP, grid_index, _MODE_TAGS[mode], j)
        for j in range(n_runs)
    ]
    vals = nmse_values(policy.nominal, rollout_states(policy, epsilon, mode, seeds))
    sd = float(vals.std(ddof=1)) if n_runs > 1 else 0.0
    return float(vals.mean()), sd


def sweep_epsilon(
    policy: TrackingPolicy,
    grid: Sequence[float],
    n_runs: int,
    master_seed: int,
    modes: Sequence[str] = (CLOSED_LOOP, OPEN_LOOP),
) -> tuple[SweepRow, ...]:
    """Average NMSE per epsilon for closed- and/or open-loop execution.

    Returns one :class:`SweepRow` per grid point, in grid order, which the
    grid check makes strictly increasing in epsilon. Each (grid point, mode)
    pair is one batch of ``n_runs`` runs through :func:`rollout_states`;
    per-run seeds are derived from (master_seed, grid index, run index,
    mode). A planned trajectory of zero norm leaves the NMSE undefined and
    raises :class:`NumericalFailure` before any run.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) == 0 or np.any(grid <= 0):
        raise ValueError("epsilon grid must be nonempty and strictly positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("epsilon grid must be strictly increasing")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    for mode in modes:
        if mode not in _MODE_TAGS:
            raise ValueError(f"unknown mode '{mode}'")
    if float(np.sum(policy.nominal.states**2)) == 0.0:
        raise NumericalFailure("planned trajectory has zero norm, so its NMSE is undefined")

    rows = []
    for i, eps in enumerate(grid):
        stats = {CLOSED_LOOP: (np.nan, np.nan), OPEN_LOOP: (np.nan, np.nan)}
        for mode in modes:
            try:
                stats[mode] = _mode_stats(policy, eps, i, mode, n_runs, master_seed)
            except Exception as exc:
                raise RuntimeError(f"sweep failed at epsilon={eps:.6g} ({mode})") from exc
        rows.append(
            SweepRow(
                epsilon=float(eps),
                avg_nmse_closed=stats[CLOSED_LOOP][0],
                avg_nmse_open=stats[OPEN_LOOP][0],
                sd_closed=stats[CLOSED_LOOP][1],
                sd_open=stats[OPEN_LOOP][1],
                n_runs=n_runs,
            )
        )
    return tuple(rows)
