"""Stochastic closed-loop / open-loop execution and NMSE sweep experiments.

This module owns the noise rule: run j's noise is sigma_j * z_j, with
sigma_j = epsilon_j * max_t |u_nom_t|_2 (:func:`noise_sigma`) and z_j the
standard normals of the stream seeded by (master seed, tags..., j), so
results are bit-reproducible and do not depend on how runs are grouped.

Every Monte Carlo study runs through one driver, :func:`seeded_runs`: it
seeds the study's runs, draws their normals and steps them through one
batched kernel, :func:`rollout_states`, in calls of ``_RUNS_PER_CALL``
runs, and returns the value the study's reducer takes from each run, so
a study holds one call's buffers plus 8 bytes per run. The
kernel takes a caller-owned C-contiguous (N, K+1, n) states buffer whose
future rows hold the normals and steps it in place, so there is no
separate noise array; callers may feed it any normals (zeros, impulses,
shifted or shared draws). It steps the batch in (time, component, run)
storage, so every step reads and writes contiguous rows of runs, and
copies the result back into the buffer. It runs a
:class:`~tlqr.lqr.TrackingPolicy` on the plant it carries
(``policy.model``) through the row forms of the per-step maps: closed loop
applies the clamped tracking law :func:`~tlqr.lqr.feedback_rows`, and every
step the plant's Euler step ``step_rows``, each on the call's preallocated
(n, N) and (m, N) work rows. Each entry of a row form depends on its own
column alone, so a run's states do not depend on its batch or the storage
order and match a per-run loop of the same row forms on one state's
(n, 1) rows bit for bit. A call may cut a row of runs anywhere, and each
run may carry its own epsilon.

Seeding builds no ``SeedSequence`` per run. Two in-place hash passes run
numpy's ``SeedSequence`` hash on uint32 entropy columns: ``_hash_seeds``
gives each run's 64-bit seed from the study's key and the run index, and
``_seed_words`` hashes those seeds into their four PCG64 seed words; the
driver runs one pair of passes per kernel call. The draw,
``_standard_normals``, then builds one ``PCG64`` and one ``Generator`` per
run on its row of words, so numpy's own PCG64 seeding runs in C. Run j's
stream is bit-identical to ``default_rng(seeds[j])``; :func:`derive_seed`
and ``default_rng`` stay as the oracle (``tests/test_simulate.py``).
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import MAX_RUNS
from .dynamics import Array, NominalTrajectory
from .exceptions import NumericalFailure
from .lqr import TrackingPolicy, feedback_rows

CLOSED_LOOP = "closed_loop"
OPEN_LOOP = "open_loop"
_MODE_TAGS = {CLOSED_LOOP: 0, OPEN_LOOP: 1}

# Context tags keep seed streams of different experiments disjoint.
_CTX_SWEEP = 1  # NMSE sweep runs
_CTX_EXIT = 2  # runs of one exit-probability estimate
_CTX_LDP = 3  # one estimate per point of the exit study's epsilon grid
_CTX_COST_ERROR = 4  # cost-error samples of the costerror suite
_CTX_RECONSTRUCTION = 5  # noise draws of its sensitivity-form reconstruction check

# Runs per kernel call of every Monte Carlo study. It bounds the call's
# arrays (its seed words, the states buffer and the kernel's column-major
# working copy) whatever ``n_runs`` is. Each call also pays a fixed cost
# whatever its size: one pair of seed hash passes of about 150 small array
# operations, and K kernel steps of about 17 row operations. A call's peak
# is two (N, K+1, n) buffers, its states and the kernel's working copy, since
# the driver frees each call's states as it binds the next call's: 2 x 1,500
# runs hold the bytes that 3 x 1,000 did when they stayed alive. On the
# full-grid sweep (fastest of 25 interleaved runs, 2 vCPUs), 1,500-run calls
# took 136 ms against 142 ms for 1,000 and traced a 1.75 MiB peak, where
# 1,000-run calls with three live buffers traced 1.69 MiB; 2,000-run calls
# were no faster and traced 2.28 MiB.
_RUNS_PER_CALL = 1500

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


def _seed_state(entropy: list[Array], n_words: int) -> Array:
    """``SeedSequence(entry).generate_state(n_words, uint64)`` for each entry of the entropy columns.

    ``entropy`` holds uint32 arrays, one per entropy word, that broadcast
    together: a (1,) array is shared by all entries, and a (rows, 1) and a
    (runs,) column make a (rows, runs) grid of entries. Returns their
    broadcast shape plus a last axis of ``n_words`` uint64 words. An entry
    shorter than the pool hashes as if padded with zero words. Every step
    runs in place on the pool and three scratch arrays of the entries' shape.
    """
    shape = np.broadcast_shapes(*(e.shape for e in entropy))
    pool = np.empty((_POOL_SIZE,) + shape, dtype=np.uint32)
    value, shifted = np.empty((2,) + shape, dtype=np.uint32)
    hash_const = _INIT_A

    def hashmix(src: Array, out: Array) -> None:
        nonlocal hash_const
        np.bitwise_xor(src, hash_const, out=out)
        hash_const = hash_const * _MULT_A & _MASK32
        out *= hash_const
        np.right_shift(out, 16, out=shifted)
        out ^= shifted

    def mix(x: Array, y: Array) -> None:  # x = mix(x, y); y is scratch
        x *= _MIX_MULT_L
        y *= _MIX_MULT_R
        x -= y
        np.right_shift(x, 16, out=shifted)
        x ^= shifted

    zero = np.zeros(1, dtype=np.uint32)
    for i in range(_POOL_SIZE):
        hashmix(entropy[i] if i < len(entropy) else zero, pool[i])
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashmix(pool[src], value)
                mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashmix(word, value)
            mix(pool[dst], value)

    # Output word w is the hashed pool word 2w, then 2w + 1 in its high half.
    hash_const = _INIT_B
    words = np.empty(shape + (n_words,), dtype=np.uint64)
    high = np.empty(shape, dtype=np.uint64)
    for i in range(2 * n_words):
        np.bitwise_xor(pool[i % _POOL_SIZE], hash_const, out=value)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        np.right_shift(value, 16, out=shifted)
        value ^= shifted
        if i % 2 == 0:
            words[..., i // 2] = value
        else:
            high[...] = value
            high <<= 32
            words[..., i // 2] |= high
    return words


def _hash_seeds(*values: int | Array) -> Array:
    """``derive_seed(*entry)`` for each entry of the given entropy columns, as a uint64 array.

    An int is shared by all entries and hashes as numpy's uint32 words of
    it; a uint32 array is one column. The columns broadcast together, at
    least one of them an array, and the result has their broadcast shape.
    """
    entropy = []
    for value in values:
        if isinstance(value, np.ndarray):
            entropy.append(value)
        else:
            entropy.extend(np.full(1, w, dtype=np.uint32) for w in _uint32_words(value))
    return _seed_state(entropy, 1)[..., 0]


def _seed_words(seeds: Array) -> Array:
    """(N, 4) uint64 array whose row j is the PCG64 seed words of ``default_rng(seeds[j])``.

    ``seeds`` is a 1-D uint64 array, as :func:`_hash_seeds` returns. A seed's
    SeedSequence entropy is its low word, then its high word unless that is
    zero; a zero high word hashes as the pool's zero padding, so one hash
    pass serves every seed.
    """
    return _seed_state([seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)], 4)


@functools.cache
def _seed_words_type() -> type:
    """The ``ISeedSequence`` that hands each new ``PCG64`` the next row of seed words.

    PCG64 reads what ``generate_state(4, np.uint64)`` returns through its data
    pointer, so each row is a contiguous (4,) uint64 array; any other request
    raises ``ValueError``. Built on first use: commands that draw no noise
    never load ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: Array) -> None:
            self.rows = iter(words)

        def generate_state(self, n_words: int, dtype=np.uint32) -> Array:
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("seed words answer generate_state(4, np.uint64) only")
            return next(self.rows)

    return SeedWords


def _standard_normals(words: Array, out: Array) -> None:
    """Fill each out[j] with the first standard normals of the PCG64 stream seeded by words[j].

    ``words`` is a C-contiguous (N, 4) uint64 array, so with
    ``words = _seed_words(seeds)`` out[j] holds what ``default_rng(seeds[j])``
    draws first. One ``SeedWords`` hands every run's ``PCG64`` its row in
    turn, so the loop builds one ``PCG64`` and one ``Generator`` per run and
    nothing else.
    """
    if words.dtype != np.uint64 or words.shape != (len(out), 4) or not words.flags.c_contiguous:
        raise ValueError("words must be a C-contiguous (N, 4) uint64 array")
    seed_words = _seed_words_type()(words)
    pcg64, generator = np.random.PCG64, np.random.Generator
    for draws in out:
        generator(pcg64(seed_words)).standard_normal(out=draws)


def noise_scale(controls: Array) -> float:
    """Reference noise scale: the largest Euclidean control norm."""
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2 or len(controls) == 0:
        raise ValueError("controls must be a nonempty (K, n_u) array")
    return float(np.linalg.norm(controls, axis=1).max())


def noise_sigma(policy: TrackingPolicy, epsilon: float | Array) -> float | Array:
    """Noise standard deviation epsilon * ``noise_scale(u_nom)``, for one epsilon or one per run."""
    if not np.all(np.asarray(epsilon) >= 0):  # negated, so that NaN fails too
        raise ValueError("epsilon must be nonnegative")
    return epsilon * noise_scale(policy.nominal.controls)


def rollout_states(
    policy: TrackingPolicy, epsilon: float | Array, mode: str, states: Array
) -> None:
    """Step N runs together, in place in the C-contiguous (N, K+1, n) float64 ``states``.

    On entry ``states[j, 1:]`` holds run j's (K, n) standard normals z_j and
    ``states[j, 0]`` is ignored; on return ``states[j]`` is run j's
    trajectory from the nominal initial state, with noise sigma_j * z_j
    added after each Euler step. sigma_j comes from :func:`noise_sigma`, and
    a run with sigma_j = 0 gets exact +0.0 noise. ``epsilon`` is one value
    for all runs or one per run. Closed loop applies the clamped feedback
    law; open loop applies the planned controls, bound-checked once per call.
    Each step runs the row forms :func:`~tlqr.lqr.feedback_rows` and the
    plant's ``step_rows`` on work rows allocated once per call, and matches
    the tests' scalar ``rollout`` oracle row by row, bit for bit.
    """
    if mode not in _MODE_TAGS:
        raise ValueError(f"unknown mode '{mode}'")
    model, nominal = policy.model, policy.nominal
    k, n = policy.horizon, model.state_dim
    if states.shape[1:] != (k + 1, n) or states.dtype != float or not states.flags.c_contiguous:
        raise ValueError(f"states must be a C-contiguous float64 (N, {k + 1}, {n}) array")
    n_runs = len(states)
    sigma = noise_sigma(policy, np.broadcast_to(np.asarray(epsilon, dtype=float), (n_runs,)))
    if mode == OPEN_LOOP:
        model.validate_control(nominal.controls)

    # The normals are copied once into ``cols``, the (time, component, run)
    # working copy whose steps read and write contiguous rows of runs, and
    # scaled there in contiguous rows. ``states`` takes the result back in
    # C order, the order nmse_values sums each run in.
    states[sigma == 0.0, 1:] = 0.0  # exact zeros at sigma = 0, not the -0.0 of 0 * z
    cols = np.empty((k + 1, n, n_runs))
    cols[1:] = states[:, 1:].transpose(1, 2, 0)
    cols[1:] *= sigma

    cols[0] = nominal.states[0][:, None]
    step = np.empty((n, n_runs))
    controls = np.empty((model.control_dim, n_runs))
    for t in range(k):
        if mode == CLOSED_LOOP:
            feedback_rows(policy, t, cols[t], controls)
        else:
            controls[:] = nominal.controls[t][:, None]
        # f(x, u) in its own rows, then added to the noise already in row t + 1.
        cols[t + 1] += model.step_rows(cols[t], controls, step)
    states[:] = cols.transpose(2, 0, 1)


def seeded_runs(
    policy: TrackingPolicy,
    mode: str,
    epsilons: Sequence[float],
    n_runs: int,
    key: Sequence[int | Array],
    reduce: Callable[[Array], Array],
) -> Array:
    """Seed, draw and step ``n_runs`` runs per row; return ``reduce``'s value for each run.

    Row i has epsilon ``epsilons[i]``, and its run j draws the normals of
    ``default_rng(derive_seed(*key_i, j))``, where ``key_i`` takes entry i
    of each uint32 array in ``key`` and each int as it is. Runs are numbered
    row by row, i * n_runs + j, and go in that order through
    :func:`rollout_states` calls of ``_RUNS_PER_CALL`` runs, the last one
    shorter; a call may cut a row. ``reduce`` may overwrite a call's (N, K+1,
    n) states and returns one value per run, shape (N,); any other shape
    raises ``ValueError`` before the next call. Returns the C-contiguous
    float64 (rows, ``n_runs``) grid of values. ``n_runs`` outside [1,
    ``MAX_RUNS``] raises ``ValueError`` before any run.
    """
    if not 1 <= n_runs <= MAX_RUNS:
        raise ValueError(f"n_runs must lie in [1, {MAX_RUNS}]")
    epsilons = np.asarray(epsilons, dtype=float)
    values = np.empty(len(epsilons) * n_runs)
    for call in range(0, len(values), _RUNS_PER_CALL):
        end = min(call + _RUNS_PER_CALL, len(values))
        rows, runs = np.divmod(np.arange(call, end), n_runs)
        columns = [v[rows] if isinstance(v, np.ndarray) else v for v in key]
        # Rebinding frees the previous call's states only after this one is
        # allocated: freeing them first let the heap shrink and fault its pages
        # back in on every call, 10 times the page faults on the full-grid sweep.
        states = np.empty((end - call, policy.horizon + 1, policy.model.state_dim))
        _standard_normals(_seed_words(_hash_seeds(*columns, runs.astype(np.uint32))), states[:, 1:])
        rollout_states(policy, epsilons[rows], mode, states)
        reduced = reduce(states)
        if np.shape(reduced) != (end - call,):
            raise ValueError(f"reduce must return one value per run, shape ({end - call},)")
        values[call:end] = reduced
    return values.reshape(len(epsilons), n_runs)


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
    grid check makes strictly increasing in epsilon. Per mode, the runs go
    through :func:`seeded_runs` with per-run seeds derived from (master_seed,
    grid index, mode, run index), and each row's mean and ``ddof=1`` sd come
    from its own line of the returned NMSE values, so the rows do not depend
    on how the driver packs runs into calls. A planned trajectory of zero norm
    leaves the NMSE undefined and raises :class:`NumericalFailure`, and with
    ``OPEN_LOOP`` among the modes a nominal control sequence out of the
    model's bounds raises :class:`~tlqr.exceptions.BoundViolation`, both
    before any run. A row whose mean or standard deviation is not finite
    (noise so large that the runs overflow) raises :class:`NumericalFailure`
    naming its epsilon and mode.
    """
    grid = np.asarray(grid, dtype=float)
    # Negated comparisons, so that NaN fails too.
    if len(grid) == 0 or not np.all(grid > 0):
        raise ValueError("epsilon grid must be nonempty and strictly positive")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("epsilon grid must be strictly increasing")
    for mode in modes:
        if mode not in _MODE_TAGS:
            raise ValueError(f"unknown mode '{mode}'")
    if float(np.sum(policy.nominal.states**2)) == 0.0:
        raise NumericalFailure("planned trajectory has zero norm, so its NMSE is undefined")

    if OPEN_LOOP in modes:
        policy.model.validate_control(policy.nominal.controls)

    stats = {m: np.full((len(grid), 2), np.nan) for m in (CLOSED_LOOP, OPEN_LOOP)}
    row_ids = np.arange(len(grid), dtype=np.uint32)
    nmse = functools.partial(nmse_values, policy.nominal)
    # Overflow and NaN surface as a row that is not finite, raised below.
    with np.errstate(over="ignore", invalid="ignore"):
        for mode in modes:
            key = (master_seed, _CTX_SWEEP, row_ids, _MODE_TAGS[mode])
            values = seeded_runs(policy, mode, grid, n_runs, key, nmse)
            rows = stats[mode]
            rows[:, 0] = values.mean(axis=1)
            rows[:, 1] = values.std(axis=1, ddof=1) if n_runs > 1 else 0.0
            bad = ~np.isfinite(rows).all(axis=1)
            if bad.any():
                i = np.argmax(bad)
                raise NumericalFailure(
                    f"{mode} NMSE at epsilon {grid[i]:.12g} is not finite "
                    f"(mean {rows[i, 0]:.6g}, sd {rows[i, 1]:.6g})"
                )
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
