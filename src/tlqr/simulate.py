"""Stochastic closed-loop / open-loop execution and NMSE sweep experiments.

This module owns the noise rule: run j's noise is sigma_j * z_j, with
sigma_j = epsilon_j * max_t |u_nom_t|_2 (:func:`noise_sigma`) and z_j the
standard normals of the stream seeded by (master seed, tags..., j), so
results are bit-reproducible and do not depend on how runs are grouped.

Every Monte Carlo study goes through one batched kernel,
:func:`rollout_states`, which steps all runs of a batch together with one
array operation per time index. It steps the batch in (time, component,
run) storage, so every step reads and writes contiguous rows of runs, and
copies the result into the C-ordered (N, K+1, n) array it returns; the
working copy is its one batch array besides the result. It runs a
:class:`~tlqr.lqr.TrackingPolicy` on the plant it carries
(``policy.model``): closed loop applies the clamped tracking law
:func:`~tlqr.lqr.feedback_control` to the whole batch, so a run's states
do not depend on its batch or the storage order and match a scalar per-run
loop over the same law bit for bit. A batch holds whole sweep rows, up to
``_RUNS_PER_CALL`` runs, and each run may carry its own epsilon.

Seeding builds no ``SeedSequence`` per run: one front end, ``_hash_seeds``,
runs numpy's ``SeedSequence`` hash on uint32 columns, one entry per run, for
:func:`derive_seeds` and for a sweep's kernel call, whose row index is one
more column. The kernel hashes each run's seed once more into its four
PCG64 seed words and builds one ``PCG64`` and one ``Generator`` per run on
them, so numpy's own PCG64 seeding runs in C. Run j's stream is
bit-identical to ``default_rng(seeds[j])``; :func:`derive_seed` and
``default_rng`` stay as the oracle (``tests/test_simulate.py``).
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Array, NominalTrajectory
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

# Runs per kernel call in a sweep; whole epsilon rows only, so a row larger
# than this is one call of its own. It bounds the kernel's two batch arrays
# (the returned states and their column-major working copy), not results.
_RUNS_PER_CALL = 500

# Most runs one derive_seeds call can number: run indices fill one uint32 word.
MAX_RUNS = 2**32

# numpy's SeedSequence (after O'Neill's seed_seq_fe): a pool of four uint32
# words, two multiplicative hash constants and a mixing step. Both constants
# advance the same way whatever the data, so they advance as Python ints.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def derive_seed(master_seed: int, *tags: int) -> int:
    """Deterministic 64-bit sub-seed from a master seed and integer tags."""
    ss = np.random.SeedSequence((master_seed,) + tags)
    return int(ss.generate_state(1, np.uint64)[0])


def _uint32_words(value: int) -> list[int]:
    """numpy's int-to-uint32 rule: little-endian words, one word for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_state(entropy: list[Array], n_words: int) -> list[Array]:
    """``SeedSequence(entropy[:, j]).generate_state(n_words, uint64)`` per column j.

    ``entropy`` holds equal-length uint32 arrays, one per entropy word. An
    entry shorter than the pool hashes as if padded with zero words.
    """
    hash_const = _INIT_A

    def hashmix(value: Array) -> Array:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: Array, y: Array) -> Array:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    return [halves[2 * i] | (halves[2 * i + 1] << 32) for i in range(n_words)]


def _hash_seeds(*values: int | Array) -> Array:
    """``derive_seed(*row)`` for each row of the given entropy columns, as a uint64 array.

    An int is shared by all rows and hashes as numpy's uint32 words of it; a
    uint32 array is one column, one entry per row. At least one value must be
    an array.
    """
    size = next(len(v) for v in values if isinstance(v, np.ndarray))
    entropy = []
    for value in values:
        if isinstance(value, np.ndarray):
            entropy.append(value)
        else:
            entropy.extend(np.full(size, w, dtype=np.uint32) for w in _uint32_words(value))
    return _seed_state(entropy, 1)[0]


def derive_seeds(master_seed: int, tags: Sequence[int], n: int) -> Array:
    """``[derive_seed(master_seed, *tags, j) for j in range(n)]`` as an (n,) uint64 array.

    Bit for bit, without a ``SeedSequence`` per run. Run indices must fit one
    32-bit word, so n <= ``MAX_RUNS``.
    """
    if not 0 <= n <= MAX_RUNS:
        raise ValueError(f"n must lie in [0, {MAX_RUNS}]")
    return _hash_seeds(master_seed, *tags, np.arange(n, dtype=np.uint32))


def _seed_array(seeds: Sequence[int]) -> Array:
    """Seeds as a 1-D uint64 array; a seed outside [0, 2**64) raises ``ValueError``."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        if seeds.ndim != 1:
            raise ValueError("seeds must be one-dimensional")
        return seeds
    values = [operator.index(s) for s in seeds]
    if not all(0 <= s < 2**64 for s in values):
        raise ValueError("seeds must lie in [0, 2**64)")
    return np.array(values, dtype=np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` one run's four seed words.

    PCG64 reads what ``generate_state(4, np.uint64)`` returns through its data
    pointer, so the words are a contiguous (4,) uint64 row; any other request
    raises ``ValueError``. Built on first use: commands that draw no noise
    never load ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: Array) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> Array:
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("seed words answer generate_state(4, np.uint64) only")
            return self.words

    return SeedWords


def _standard_normals(seeds: Array, out: Array) -> None:
    """Fill each out[j] with the first standard normals ``default_rng(seeds[j])`` draws.

    A seed's SeedSequence entropy is its low word, then its high word unless
    that is zero; a zero high word hashes as the pool's zero padding, so one
    hash pass gives every run's four PCG64 seed words. Each run's ``PCG64``
    seeds itself from its row of words, so no ``SeedSequence`` is built per
    run.
    """
    seed_words = _seed_words_type()
    pcg64, generator = np.random.PCG64, np.random.Generator
    lo = (seeds & _MASK32).astype(np.uint32)
    hi = (seeds >> 32).astype(np.uint32)
    words = np.stack(_seed_state([lo, hi], 4), axis=1)
    for row, draws in zip(words, out):
        generator(pcg64(seed_words(row))).standard_normal(out=draws)


def noise_scale(controls: Array) -> float:
    """Reference noise scale: the largest Euclidean control norm."""
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2 or len(controls) == 0:
        raise ValueError("controls must be a nonempty (K, n_u) array")
    return float(np.linalg.norm(controls, axis=1).max())


def noise_sigma(policy: TrackingPolicy, epsilon: float | Array) -> float | Array:
    """Noise standard deviation epsilon * ``noise_scale(u_nom)``, for one epsilon or one per run."""
    if np.any(np.asarray(epsilon) < 0):
        raise ValueError("epsilon must be nonnegative")
    return epsilon * noise_scale(policy.nominal.controls)


def rollout_states(
    policy: TrackingPolicy, epsilon: float | Array, mode: str, seeds: Sequence[int]
) -> Array:
    """C-contiguous states (N, K+1, n) of N runs executed together, one per seed.

    ``epsilon`` is one value for all runs or one per run. Run j's noise is
    sigma_j * z_j with sigma_j from :func:`noise_sigma` and z_j the (K, n)
    standard normals of a stream bit-identical to ``default_rng(seeds[j])``;
    seeds must lie in [0, 2**64). Closed loop applies the clamped feedback
    law; open loop applies the planned controls, bound-checked once per call.
    """
    if mode not in _MODE_TAGS:
        raise ValueError(f"unknown mode '{mode}'")
    model, nominal = policy.model, policy.nominal
    k, n = policy.horizon, model.state_dim
    seeds = _seed_array(seeds)
    sigma = noise_sigma(policy, np.broadcast_to(np.asarray(epsilon, dtype=float), seeds.shape))
    if mode == OPEN_LOOP:
        model.validate_control(nominal.controls)

    # Each run's standard normals are drawn straight into its future states,
    # then scaled once into ``cols``, the (time, component, run) working copy
    # whose steps read and write contiguous rows of runs. ``states`` takes
    # the result back in C order, the order nmse_values sums each run in.
    states = np.empty((len(seeds), k + 1, n))
    _standard_normals(seeds, states[:, 1:])
    states[sigma == 0.0, 1:] = 0.0  # exact zeros at sigma = 0, not the -0.0 of 0 * z
    cols = np.empty((k + 1, n, len(seeds)))
    np.multiply(states[:, 1:].transpose(1, 2, 0), sigma, out=cols[1:])

    cols[0] = nominal.states[0][:, None]
    planned = np.broadcast_to(nominal.controls[:, None], (k, len(seeds), model.control_dim))
    for t in range(k):
        x = cols[t].T
        u = feedback_control(policy, t, x) if mode == CLOSED_LOOP else planned[t]
        np.add(model.transition(x, u).T, cols[t + 1], out=cols[t + 1])
    states[:] = cols.transpose(2, 0, 1)
    return states


def nmse_values(planned: NominalTrajectory, states: Array) -> Array:
    """Per-run normalized mean squared error, in percent.

    ``states`` is an (N, K+1, n) array as returned by :func:`rollout_states`;
    it is read, never written. Both trajectories are stacked into single
    vectors (initial state included); the value is
    |planned - run|^2 / |planned|^2 * 100.
    """
    denom = float(np.sum(planned.states**2))
    if denom == 0.0:
        raise ValueError("planned trajectory has zero norm")
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[1:] != planned.states.shape:
        raise ValueError("run horizon does not match the planned trajectory")
    diff = states - planned.states
    np.square(diff, out=diff)
    return np.sum(diff.reshape(len(states), -1), axis=1) / denom * 100.0


@dataclass(frozen=True)
class SweepRow:
    """Per-epsilon Monte Carlo summary; missing modes hold NaN."""

    epsilon: float
    avg_nmse_closed: float
    avg_nmse_open: float
    sd_closed: float
    sd_open: float
    n_runs: int


def sweep_epsilon(
    policy: TrackingPolicy,
    grid: Sequence[float],
    n_runs: int,
    master_seed: int,
    modes: Sequence[str] = (CLOSED_LOOP, OPEN_LOOP),
) -> tuple[SweepRow, ...]:
    """Average NMSE per epsilon for closed- and/or open-loop execution.

    Returns one :class:`SweepRow` per grid point, in grid order, which the
    grid check makes strictly increasing in epsilon. Per mode, whole rows of
    ``n_runs`` runs share :func:`rollout_states` calls of up to
    ``_RUNS_PER_CALL`` runs; per-run seeds are derived from (master_seed,
    grid index, run index, mode), so the rows do not depend on the packing.
    A planned trajectory of zero norm leaves the NMSE undefined and raises
    :class:`NumericalFailure`, and with ``OPEN_LOOP`` among the modes a
    nominal control sequence out of the model's bounds raises
    :class:`~tlqr.exceptions.BoundViolation`, both before any run.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) == 0 or np.any(grid <= 0):
        raise ValueError("epsilon grid must be nonempty and strictly positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("epsilon grid must be strictly increasing")
    if not 1 <= n_runs <= MAX_RUNS:
        raise ValueError(f"n_runs must lie in [1, {MAX_RUNS}]")
    for mode in modes:
        if mode not in _MODE_TAGS:
            raise ValueError(f"unknown mode '{mode}'")
    if float(np.sum(policy.nominal.states**2)) == 0.0:
        raise NumericalFailure("planned trajectory has zero norm, so its NMSE is undefined")

    if OPEN_LOOP in modes:
        policy.model.validate_control(policy.nominal.controls)

    stats = {m: np.full((len(grid), 2), np.nan) for m in (CLOSED_LOOP, OPEN_LOOP)}
    rows_per_call = max(1, _RUNS_PER_CALL // n_runs)
    for mode in modes:
        for first in range(0, len(grid), rows_per_call):
            rows = range(first, min(first + rows_per_call, len(grid)))
            row_index = np.repeat(np.arange(rows.start, rows.stop, dtype=np.uint32), n_runs)
            run_index = np.tile(np.arange(n_runs, dtype=np.uint32), len(rows))
            seeds = _hash_seeds(master_seed, _CTX_SWEEP, row_index, _MODE_TAGS[mode], run_index)
            states = rollout_states(policy, np.repeat(grid[rows], n_runs), mode, seeds)
            vals = nmse_values(policy.nominal, states)
            for i, v in zip(rows, vals.reshape(-1, n_runs)):
                stats[mode][i] = v.mean(), v.std(ddof=1) if n_runs > 1 else 0.0
    return tuple(
        SweepRow(
            epsilon=float(eps),
            avg_nmse_closed=float(stats[CLOSED_LOOP][i, 0]),
            avg_nmse_open=float(stats[OPEN_LOOP][i, 0]),
            sd_closed=float(stats[CLOSED_LOOP][i, 1]),
            sd_open=float(stats[OPEN_LOOP][i, 1]),
            n_runs=n_runs,
        )
        for i, eps in enumerate(grid)
    )
