import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LinearSystem, config_sweep, seeded_states
from tlqr import large_deviations, simulate
from tlqr.cli import plan_experiment
from tlqr.config import FULL_GRID, MAX_RUNS, epsilon_grid
from tlqr.dynamics import NominalTrajectory
from tlqr.exceptions import BoundViolation, NumericalFailure
from tlqr.large_deviations import action_functional, estimate_exit_probability
from tlqr.lqr import LqrWeights, TrackingPolicy, design_tracking_policy, feedback_rows
from tlqr.simulate import (
    CLOSED_LOOP,
    OPEN_LOOP,
    _CTX_SWEEP,
    _MODE_TAGS,
    _hash_seeds,
    _seed_words,
    _seed_words_type,
    _standard_normals,
    derive_seed,
    nmse_values,
    noise_scale,
    noise_sigma,
    rollout_states,
    seeded_runs,
    sweep_epsilon,
)


@dataclasses.dataclass(frozen=True, eq=False)
class Rollout:
    """One stochastic execution: stored controls are the applied (post-clamp) ones."""

    states: np.ndarray
    controls: np.ndarray
    noises: np.ndarray


def rollout(policy: TrackingPolicy, epsilon: float, mode: str, seed: int) -> Rollout:
    """Reference for ``rollout_states``: one run, stepped one state at a time.

    Closed loop applies the clamped feedback law each step; open loop applies
    the planned control sequence regardless of state. Every step checks the
    control bounds before its Euler step, and runs the row forms on the
    state's (n, 1) rows.
    """
    if mode not in (CLOSED_LOOP, OPEN_LOOP):
        raise ValueError(f"unknown mode '{mode}'")
    model = policy.model
    k = policy.horizon
    sigma = noise_sigma(policy, epsilon)
    if sigma == 0.0:
        noises = np.zeros((k, model.state_dim))  # the kernel's exact zeros
    else:
        noises = sigma * np.random.default_rng(seed).standard_normal((k, model.state_dim))

    states = np.empty((k + 1, model.state_dim))
    controls = np.empty((k, model.control_dim))
    states[0] = policy.nominal.states[0]
    for t in range(k):
        x = states[t][:, None]
        if mode == CLOSED_LOOP:
            feedback_rows(policy, t, x, controls[t][:, None])
        else:
            controls[t] = policy.nominal.controls[t]
        model.validate_control(controls[t])
        model.step_rows(x, controls[t][:, None], states[t + 1][:, None])
        states[t + 1] += noises[t]
    return Rollout(states=states, controls=controls, noises=noises)


def test_zero_noise_closed_loop_tracks_nominal(car_experiment):
    planned, _ = car_experiment
    run = rollout(planned.policy, 0.0, CLOSED_LOOP, seed=1)
    np.testing.assert_allclose(run.states, planned.policy.nominal.states, atol=1e-12)


def test_zero_noise_open_equals_closed(car_experiment):
    planned, _ = car_experiment
    closed = rollout(planned.policy, 0.0, CLOSED_LOOP, seed=1)
    opened = rollout(planned.policy, 0.0, OPEN_LOOP, seed=1)
    np.testing.assert_array_equal(closed.states, opened.states)


def test_same_seed_bit_identical(car_experiment):
    planned, _ = car_experiment
    a = rollout(planned.policy, 0.08, CLOSED_LOOP, seed=12345)
    b = rollout(planned.policy, 0.08, CLOSED_LOOP, seed=12345)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.noises, b.noises)


def test_applied_controls_respect_bounds(car_experiment):
    planned, _ = car_experiment
    run = rollout(planned.policy, 0.3, CLOSED_LOOP, seed=5)
    assert np.all(np.abs(run.controls[:, 0]) <= planned.policy.model.v_max)
    assert np.all(np.abs(run.controls[:, 1]) < planned.policy.model.phi_max)


def test_noise_scale_examples():
    assert noise_scale(np.zeros((5, 2))) == 0.0
    assert noise_scale(np.array([[0.6, 0.0], [0.3, 0.3]])) == pytest.approx(0.6)
    controls = np.array([[0.2, 0.1], [0.4, -0.3]])
    assert noise_scale(3.0 * controls) == pytest.approx(3.0 * noise_scale(controls))
    with pytest.raises(ValueError):
        noise_scale(np.zeros((0, 2)))


def test_noise_sigma_rejects_negative_epsilon(car_experiment):
    planned, _ = car_experiment
    for epsilon in (-0.01, np.array([0.05, -1e-300])):
        with pytest.raises(ValueError, match="nonnegative"):
            noise_sigma(planned.policy, epsilon)


def test_noise_sigma_gives_one_sigma_per_run(car_experiment):
    planned, _ = car_experiment
    base = noise_scale(planned.policy.nominal.controls)
    epsilon = np.array([0.0, 0.01, 0.05, 0.147])
    sigma = noise_sigma(planned.policy, epsilon)
    assert sigma.shape == (4,)
    assert np.array_equal(sigma, epsilon * base)
    assert noise_sigma(planned.policy, 0.05) == 0.05 * base


class _NegativeZeroPlant(LinearSystem):
    """Every Euler step lands on -0.0, so a -0.0 noise term would stay visible."""

    def step_rows(self, x, u, out):
        out[:] = -0.0
        return out


def test_zero_epsilon_rows_get_exact_zero_noise():
    k = 12
    policy = TrackingPolicy(
        nominal=NominalTrajectory(states=np.zeros((k + 1, 1)), controls=np.ones((k, 1))),
        gains=np.zeros((k, 1, 1)),
        riccati=np.ones((k + 1, 1, 1)),
        closed_loop=np.ones((k, 1, 1)),
        model=_NegativeZeroPlant(a=[[1.0]], b=[[1.0]]),
    )
    for mode in (CLOSED_LOOP, OPEN_LOOP):
        states = seeded_states(policy, [0.0, 0.1, 0.0], mode, [1, 2, 3])
        # 0.0 * z is -0.0 for every negative z; the kernel adds +0.0 instead.
        assert np.all(states[[0, 2], 1:] == 0.0)
        assert not np.any(np.signbit(states[[0, 2], 1:]))
        assert np.all(states[1, 1:] != 0.0)


def test_nmse_examples(car_experiment):
    planned, _ = car_experiment
    exact = planned.policy.nominal.states[None]
    assert nmse_values(planned.policy.nominal, exact).mean() == 0.0

    planned_stack = NominalTrajectory(
        states=np.array([[1.0], [1.0]]), controls=np.zeros((1, 1))
    )
    run = np.array([[[1.1], [0.9]]])
    assert nmse_values(planned_stack, run).mean() == pytest.approx(1.0, rel=1e-12)


def test_nmse_zero_norm_nominal_rejected():
    zero = NominalTrajectory(states=np.zeros((2, 1)), controls=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        nmse_values(zero, np.ones((1, 2, 1)))


def test_nmse_rejects_mismatched_state_array(car_experiment):
    planned, _ = car_experiment
    states = planned.policy.nominal.states
    for bad in (states[None, :-1], states[None, :, :2], states):
        with pytest.raises(ValueError, match="horizon"):
            nmse_values(planned.policy.nominal, bad)


def test_sweep_grid_validation(car_experiment):
    planned, _ = car_experiment
    with pytest.raises(ValueError):
        sweep_epsilon(planned.policy, [0.0, 0.1], 2, 1)
    with pytest.raises(ValueError):
        sweep_epsilon(planned.policy, [0.2, 0.1], 2, 1)
    with pytest.raises(ValueError):
        sweep_epsilon(planned.policy, [0.1, 0.2], 0, 1)
    with pytest.raises(ValueError, match="n_runs"):
        sweep_epsilon(planned.policy, [0.1, 0.2], MAX_RUNS + 1, 1)
    with pytest.raises(ValueError):
        sweep_epsilon(planned.policy, [0.1], 1, 1, modes=("sideways",))


def test_sweep_single_mode_leaves_nan(car_experiment):
    planned, _ = car_experiment
    (row,) = sweep_epsilon(planned.policy, [0.05], 5, 7, modes=(CLOSED_LOOP,))
    assert np.isfinite(row.avg_nmse_closed)
    assert np.isnan(row.avg_nmse_open) and np.isnan(row.sd_open)


def test_sweep_rows_strictly_increasing_epsilon(car_experiment):
    planned, _ = car_experiment
    rows = sweep_epsilon(planned.policy, [0.02, 0.05, 0.11], 3, 9)
    eps = np.array([r.epsilon for r in rows])
    assert len(eps) == 3 and np.all(np.diff(eps) > 0)


@pytest.mark.parametrize("epsilon", [1e150, 1e296])
@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_overflowed_sweep_row_raises_numerical_failure(car_experiment, mode, epsilon):
    # At 1e296 the NMSE overflows to inf and its sd is NaN; at 1e150 the mean
    # stays finite (about 1e303) but the sd overflows. Warnings are errors here.
    planned, _ = car_experiment
    message = f"{mode} NMSE at epsilon {epsilon:.12g} is not finite"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        sweep_epsilon(planned.policy, [epsilon], 3, 20260810, modes=(mode,))


def test_sweep_block_names_its_first_row_that_is_not_finite(car_experiment):
    # One kernel call holds all three rows; the later two overflow.
    planned, _ = car_experiment
    message = f"{CLOSED_LOOP} NMSE at epsilon {1e150:.12g} is not finite"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        sweep_epsilon(planned.policy, [0.05, 1e150, 1e296], 3, 20260810, modes=(CLOSED_LOOP,))


@pytest.mark.parametrize("n_runs", [1, 7, 999, 1001, 2500])
def test_sweep_rows_equal_each_rows_own_reduction(car_experiment, n_runs):
    # At 1,500 runs per call, calls cut rows of 999, 1,001 and 2,500 runs,
    # and one call holds all rows of 1 or 7; each row's mean and sd must be
    # those of the row's own array of values.
    policy = car_experiment[0].policy
    grid, master_seed = [0.02, 0.09, 0.13], 31
    rows = sweep_epsilon(policy, grid, n_runs, master_seed)
    for mode in (CLOSED_LOOP, OPEN_LOOP):
        key = (master_seed, _CTX_SWEEP, np.arange(len(grid), dtype=np.uint32), _MODE_TAGS[mode])
        calls = _recorded_runs(policy, mode, grid, n_runs, key)
        vals = np.concatenate([nmse_values(policy.nominal, states) for states in calls])
        tag = "closed" if mode == CLOSED_LOOP else "open"
        for i, row in enumerate(rows):
            own = vals[i * n_runs : (i + 1) * n_runs].copy()
            sd = own.std(ddof=1) if n_runs > 1 else 0.0
            assert (getattr(row, f"avg_nmse_{tag}"), getattr(row, f"sd_{tag}")) == (own.mean(), sd)


def _recorded_runs(policy, mode, epsilons, n_runs, key):
    """Copies of the states of each kernel call ``seeded_runs`` makes, in call order."""
    calls = []

    def record(states):
        calls.append(states.copy())
        return np.zeros(len(states))

    seeded_runs(policy, mode, epsilons, n_runs, key, record)
    return calls


def _out_of_bounds_open_loop_policy(planned):
    controls = planned.policy.nominal.controls.copy()
    controls[4, 0] = 2.0 * planned.policy.model.v_max
    nominal = NominalTrajectory(states=planned.policy.nominal.states, controls=controls)
    return dataclasses.replace(planned.policy, nominal=nominal)


def test_sweep_out_of_bounds_open_loop_raises_before_any_run(car_experiment, monkeypatch):
    planned, _ = car_experiment
    policy = _out_of_bounds_open_loop_policy(planned)
    calls = []

    def counted(*args):
        calls.append(args)
        return rollout_states(*args)

    monkeypatch.setattr(simulate, "rollout_states", counted)
    with pytest.raises(BoundViolation):
        sweep_epsilon(policy, [0.05, 0.1], 2, 1, modes=(CLOSED_LOOP, OPEN_LOOP))
    assert calls == []


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)


def _seeds(n):
    return [derive_seed(99, j) for j in range(n)]


@pytest.mark.parametrize("epsilon", [0.01, 0.06, 0.15])
def test_rollout_states_open_loop_bitwise_equals_rollout(car_experiment, epsilon):
    planned, _ = car_experiment
    seeds = _seeds(300)
    batch = seeded_states(planned.policy, epsilon, OPEN_LOOP, seeds)
    assert batch.shape == (300, planned.policy.horizon + 1, 3)
    for j, seed in enumerate(seeds):
        run = rollout(planned.policy, epsilon, OPEN_LOOP, seed)
        assert np.array_equal(batch[j], run.states)


@pytest.mark.parametrize("epsilon", [0.01, 0.06, 0.1, 0.147])
def test_rollout_states_closed_loop_matches_rollout(car_experiment, epsilon):
    # Both paths apply the one feedback_rows, so they agree bit for bit.
    # The seeds include the full-grid sweep's closed-loop runs at epsilon; at
    # 0.147 one of them clamps the steering next to pi/2 and |theta| blows up.
    planned, _ = car_experiment
    row = list(epsilon_grid(*FULL_GRID)).index(epsilon)
    sweep_seeds = [
        derive_seed(planned.config.master_seed, _CTX_SWEEP, row, 0, j) for j in range(100)
    ]
    seeds = _seeds(300) + sweep_seeds
    batch = seeded_states(planned.policy, epsilon, CLOSED_LOOP, seeds)
    for j, seed in enumerate(seeds):
        run = rollout(planned.policy, epsilon, CLOSED_LOOP, seed)
        assert np.array_equal(batch[j], run.states)


# log10 ranges of per-run epsilon: no clamp, velocity clamps, the singular
# steering clamp next to pi/2 (from about 0.11), and an NMSE that overflows;
# a fifth of the runs have epsilon 0.
_EPSILON_DECADES = np.array([(-4.0, -2.3), (-2.0, -1.0), (-0.96, 0.5), (150.0, 296.0)])


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(n_runs=st.sampled_from([1, 7]), seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_kernel_rows_equal_the_scalar_rollout(car_experiment, mode, n_runs, seed):
    _check_kernel_rows_against_rollout(car_experiment[0].policy, mode, n_runs, seed)


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_kernel_rows_of_a_full_call_equal_the_scalar_rollout(car_experiment, mode):
    _check_kernel_rows_against_rollout(car_experiment[0].policy, mode, 1000, 2026)


def _check_kernel_rows_against_rollout(policy, mode, n_runs, seed):
    rng = np.random.default_rng(seed)
    regime = rng.integers(len(_EPSILON_DECADES) + 1, size=n_runs)
    lo, hi = _EPSILON_DECADES[np.minimum(regime, len(_EPSILON_DECADES) - 1)].T
    epsilons = np.where(regime < len(_EPSILON_DECADES), 10.0 ** rng.uniform(lo, hi), 0.0)
    seeds = rng.integers(0, 2**63, size=n_runs).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        batch = seeded_states(policy, epsilons, mode, seeds)
        for row, epsilon, seed in zip(batch, epsilons, seeds):
            assert row.tobytes() == rollout(policy, epsilon, mode, seed).states.tobytes()


def test_rollout_states_zero_noise_closed_loop_is_nominal(car_experiment):
    planned, _ = car_experiment
    batch = seeded_states(planned.policy, 0.0, CLOSED_LOOP, _seeds(5))
    for states in batch:
        assert np.array_equal(states, planned.policy.nominal.states)


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_rollout_states_run_independent_of_batch_position(car_experiment, mode):
    planned, _ = car_experiment
    seeds = _seeds(100)
    batch = seeded_states(planned.policy, 0.08, mode, seeds)
    reversed_batch = seeded_states(planned.policy, 0.08, mode, seeds[::-1])
    assert np.array_equal(reversed_batch[::-1], batch)
    for j, seed in enumerate(seeds):
        alone = seeded_states(planned.policy, 0.08, mode, [seed])
        assert np.array_equal(alone[0], batch[j])


def test_rollout_states_rejects_bad_arguments(car_experiment):
    planned, _ = car_experiment
    k = planned.policy.horizon
    with pytest.raises(ValueError, match="nonnegative"):
        rollout_states(planned.policy, -0.01, CLOSED_LOOP, np.zeros((1, k + 1, 3)))
    with pytest.raises(ValueError, match="unknown mode"):
        rollout_states(planned.policy, 0.05, "sideways", np.zeros((1, k + 1, 3)))
    # The buffer's memory order is the order nmse_values sums a run in.
    for bad in (
        np.zeros((2, k, 3)),
        np.zeros((2, k + 1, 2)),
        np.zeros((2, k + 1, 3), dtype=np.float32),
        np.zeros((2, k + 1, 3), order="F"),
        np.zeros((2, k + 1, 6))[:, :, ::2],
    ):
        with pytest.raises(ValueError, match="C-contiguous"):
            rollout_states(planned.policy, 0.05, CLOSED_LOOP, bad)


def test_rollout_states_open_loop_rejects_out_of_bounds_nominal(car_experiment):
    planned, _ = car_experiment
    policy = _out_of_bounds_open_loop_policy(planned)
    with pytest.raises(BoundViolation):
        seeded_states(policy, 0.05, OPEN_LOOP, [1, 2])
    with pytest.raises(BoundViolation):
        rollout(policy, 0.05, OPEN_LOOP, 1)


# -- the kernel steps the normals it is given --


def _kernel_rows(policy, epsilon, mode, normals):
    """Kernel states for hand-made (N, K, n) standard normals."""
    states = np.empty((len(normals), policy.horizon + 1, policy.model.state_dim))
    states[:, 1:] = normals
    rollout_states(policy, epsilon, mode, states)
    return states


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_zero_normals_give_the_nominal_rows_at_any_epsilon(car_experiment, mode):
    policy = car_experiment[0].policy
    per_run = [0.0, 1e-300, 0.01, 0.15, 10.0]
    zeros = np.zeros((len(per_run), policy.horizon, 3))
    for epsilon in (per_run, 0.07, 10.0):
        for row in _kernel_rows(policy, epsilon, mode, zeros):
            assert np.array_equal(row, policy.nominal.states)


def _linear_policy():
    """A two-state linear plant tracking a planned control sequence with LQR gains."""
    model = LinearSystem(a=[[0.9, 0.2], [-0.1, 1.0]], b=[[0.0], [0.5]])
    nominal = model.rollout_nominal([1.0, -0.5], np.sin(np.arange(8.0))[:, None])
    return design_tracking_policy(model, nominal, LqrWeights(np.ones(2), np.ones(1)))


def _deviation_maps(policy, mode):
    """D_t with x_{t+1} - x_nom_{t+1} = D_t (x_t - x_nom_t) + w_t on the linear plant."""
    if mode == CLOSED_LOOP:
        return policy.closed_loop  # A - B L_t: the law applies u_nom - L_t (x - x_nom)
    return np.broadcast_to(policy.model.a, policy.closed_loop.shape)


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_single_impulse_rows_equal_the_linear_closed_form(mode):
    policy = _linear_policy()
    k, epsilon = policy.horizon, 0.3
    sigma, maps = noise_sigma(policy, epsilon), _deviation_maps(policy, mode)
    pulses = list(itertools.product(range(k), range(2)))
    impulses = np.zeros((len(pulses), k, 2))
    for j, (s, i) in enumerate(pulses):
        impulses[j, s, i] = 1.0
    rows = _kernel_rows(policy, epsilon, mode, impulses)
    for row, (s, i) in zip(rows, pulses):
        # Zero until the pulse, sigma e_i right after it, then D_{t-1} ... D_{s+1} sigma e_i.
        expected = np.zeros((k + 1, 2))
        expected[s + 1, i] = sigma
        for t in range(s + 1, k):
            expected[t + 1] = maps[t] @ expected[t]
        np.testing.assert_allclose(row - policy.nominal.states, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_shifted_draw_adds_the_shift_response(mode):
    policy = _linear_policy()
    k, epsilon = policy.horizon, 0.3
    sigma, maps = noise_sigma(policy, epsilon), _deviation_maps(policy, mode)
    normals = np.random.default_rng(5).standard_normal((30, k, 2))
    shift = np.array([0.7, -1.3])
    response = np.zeros((k + 1, 2))  # of the constant noise sigma * shift
    for t in range(k):
        response[t + 1] = maps[t] @ response[t] + sigma * shift
    rows = _kernel_rows(policy, epsilon, mode, normals)
    shifted = _kernel_rows(policy, epsilon, mode, normals + shift)
    np.testing.assert_allclose(shifted - rows, np.broadcast_to(response, rows.shape), atol=1e-14)


# -- batched seeding: _hash_seeds and the per-run draw against their oracle --


@pytest.mark.parametrize(
    "master_seed, tags",
    [
        (0, ()),
        (20260810, (_CTX_SWEEP, 7, 1)),
        (2**32 - 1, (2,)),
        (2**32, (2,)),
        (2**40 + 3, (_CTX_SWEEP, 149, 0)),
        (2**64 - 1, (2,)),
        (5, (2**32, 9)),
        (5, (2**63 + 1, 2**32 - 1, 0)),
        (11, (1, 2, 3, 4, 5, 6)),
    ],
)
def test_hash_seeds_equals_derive_seed(master_seed, tags):
    got = _hash_seeds(master_seed, *tags, np.arange(300, dtype=np.uint32))
    assert got.dtype == np.uint64 and got.shape == (300,)
    assert got.tolist() == [derive_seed(master_seed, *tags, j) for j in range(300)]


def test_hash_seeds_from_a_first_run_index():
    # A hash pass of seeded_runs may start inside a row, up to the last uint32 run index.
    tags = (_CTX_SWEEP, 3)
    for first in (0, 1, 2**31, 2**32 - 40):
        got = _hash_seeds(2**40 + 3, *tags, np.arange(first, first + 40, dtype=np.uint32))
        assert got.tolist() == [derive_seed(2**40 + 3, *tags, j) for j in range(first, first + 40)]


def test_hash_seeds_rejects_negative_values():
    for master_seed, tags in ((-1, ()), (3, (-2,))):
        with pytest.raises(ValueError):
            derive_seed(master_seed, *tags)
        with pytest.raises(ValueError):
            _hash_seeds(master_seed, *tags, np.arange(4, dtype=np.uint32))
    assert _hash_seeds(3, 1, np.arange(0, dtype=np.uint32)).shape == (0,)


def test_standard_normals_streams_equal_default_rng():
    # 0 through 2**32 - 1 seed SeedSequence with one word, 2**32 and up with two.
    edge = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
    hashed = _hash_seeds(2**33 + 5, _CTX_SWEEP, np.arange(500, dtype=np.uint32))
    seeds = np.array(edge + hashed.tolist(), dtype=np.uint64)
    out = np.empty((len(seeds), 20, 3))
    _standard_normals(_seed_words(seeds), out)
    for draws, seed in zip(out, seeds.tolist()):
        assert np.array_equal(draws, np.random.default_rng(seed).standard_normal((20, 3)))


def test_seed_words_answer_only_pcg64s_request():
    # PCG64 reads the data pointer of the (4,) uint64 array it is handed.
    rows = np.arange(12, dtype=np.uint64).reshape(3, 4)
    words = _seed_words_type()(rows)
    for request in ((4, np.uint32), (2, np.uint64), (8, np.uint64), (4,)):
        with pytest.raises(ValueError):
            words.generate_state(*request)
    # A refused request hands out no row: each PCG64 gets the next one in turn.
    for row in rows:
        given = words.generate_state(4, np.uint64)
        assert np.shares_memory(given, rows) and given.flags.c_contiguous
        assert given.tolist() == row.tolist()


def test_standard_normals_refuse_words_pcg64_would_misread():
    words = _seed_words(np.array([1, 2, 3], dtype=np.uint64))
    out = np.empty((3, 20, 3))
    for bad in (words[:2], words[:, :3], words.astype(np.int64), np.asfortranarray(words)):
        with pytest.raises(ValueError, match="C-contiguous"):
            _standard_normals(bad, out)


def test_rollout_states_top_64_bit_seed_keeps_every_bit(car_experiment):
    planned, _ = car_experiment
    # A seed list that numpy would coerce to float64 keeps every bit.
    top = [2**64 - 1, 1]
    batch = seeded_states(planned.policy, 0.05, CLOSED_LOOP, top)
    for states, seed in zip(batch, top):
        assert np.array_equal(states, rollout(planned.policy, 0.05, CLOSED_LOOP, seed).states)


# -- one kernel call per run budget --


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_per_run_epsilon_equals_per_epsilon_calls(car_experiment, mode):
    planned, _ = car_experiment
    eps = [0.01, 0.06, 0.147]
    seeds = _seeds(120)
    run_eps = np.repeat(eps, 40)
    batch = seeded_states(planned.policy, run_eps, mode, seeds)
    for i, e in enumerate(eps):
        rows = slice(40 * i, 40 * (i + 1))
        assert np.array_equal(batch[rows], seeded_states(planned.policy, e, mode, seeds[rows]))


def test_rollout_states_per_run_epsilon_validation(car_experiment):
    planned, _ = car_experiment
    with pytest.raises(ValueError, match="nonnegative"):
        seeded_states(planned.policy, [0.05, -0.01], CLOSED_LOOP, [1, 2])
    with pytest.raises(ValueError):
        seeded_states(planned.policy, [0.05, 0.06, 0.07], CLOSED_LOOP, [1, 2])


def test_sweep_rows_independent_of_runs_per_call(car_experiment, monkeypatch):
    planned, _ = car_experiment
    grid, n_runs = [0.02, 0.05, 0.09, 0.11], 30

    def sweep():
        rows = sweep_epsilon(planned.policy, grid, n_runs, 13)
        return np.array([dataclasses.astuple(r) for r in rows])

    default = sweep()
    for budget in (1, n_runs, 2 * n_runs + 1, 3 * n_runs, len(grid) * n_runs, 10**6):
        monkeypatch.setattr(simulate, "_RUNS_PER_CALL", budget)
        assert np.array_equal(sweep(), default)


def test_sweep_cuts_rows_larger_than_a_kernel_call(car_experiment, monkeypatch):
    """No kernel call takes more than ``_RUNS_PER_CALL`` runs, so memory does not grow with n_runs."""
    planned, _ = car_experiment
    grid, n_runs, budget = [0.02, 0.05, 0.09], 37, 16
    whole_rows = sweep_epsilon(planned.policy, grid, n_runs, 13)
    sizes = []
    original = simulate.rollout_states

    def recorded(policy, epsilon, mode, states):
        sizes.append(len(states))
        return original(policy, epsilon, mode, states)

    monkeypatch.setattr(simulate, "rollout_states", recorded)
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", budget)
    assert sweep_epsilon(planned.policy, grid, n_runs, 13) == whole_rows
    assert max(sizes) == budget
    assert sum(sizes) == 2 * len(grid) * n_runs


def test_full_grid_sweep_runs_fixed_calls_with_one_hash_pair_each(car_experiment, monkeypatch):
    # --full-grid --mode both: 150 points of 100 runs per mode, packed into
    # ceil(15,000 / _RUNS_PER_CALL) calls per mode, the last one shorter; the
    # configured grid's 15 points of 100 runs, one call per mode at 1,500.
    planned, _ = car_experiment
    calls, passes = [], {"_hash_seeds": 0, "_seed_words": 0}

    def packed(total):
        size = simulate._RUNS_PER_CALL
        sizes = [size] * (total // size) + ([total % size] if total % size else [])
        return [(CLOSED_LOOP, n) for n in sizes] + [(OPEN_LOOP, n) for n in sizes]

    def counted(name):
        original = getattr(simulate, name)

        def wrapper(*args):
            passes[name] += 1
            return original(*args)

        return wrapper

    original = simulate.rollout_states

    def recorded(policy, epsilon, mode, states):
        calls.append((mode, len(states)))
        return original(policy, epsilon, mode, states)

    for name in passes:
        monkeypatch.setattr(simulate, name, counted(name))
    monkeypatch.setattr(simulate, "rollout_states", recorded)
    rows = config_sweep(planned, grid=epsilon_grid(*FULL_GRID))
    assert len(rows) == 150 and {r.n_runs for r in rows} == {100}
    assert calls == packed(15_000)
    assert passes == dict.fromkeys(passes, len(calls))

    calls.clear()
    passes.update(dict.fromkeys(passes, 0))
    rows = config_sweep(planned)
    assert len(rows) == 15 and {r.n_runs for r in rows} == {100}
    assert calls == packed(1_500)
    assert passes == dict.fromkeys(passes, len(calls))


@pytest.mark.parametrize("study", ["full_grid_sweep", "exit_estimate"])
def test_monte_carlo_peak_holds_one_call_of_buffers(car_experiment, study):
    # The driver keeps no call's states past the allocation of the next
    # call's, so a study's peak is one call's states plus the kernel's working
    # copy and the value grid: about 2.6 (N, K+1, n) buffers of
    # _RUNS_PER_CALL runs, where keeping the previous call's states alive
    # made it 3.5 or more.
    planned, _ = car_experiment
    policy = planned.policy
    run = {
        "full_grid_sweep": lambda: config_sweep(planned, grid=epsilon_grid(*FULL_GRID)),
        "exit_estimate": lambda: estimate_exit_probability(policy, 0.3, 0.05, 2000, 7),
    }[study]
    run()  # warm, so that one-off imports and caches are not counted
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = simulate._RUNS_PER_CALL * (policy.horizon + 1) * policy.model.state_dim * 8
    assert peak <= 2.75 * buffer, f"{study} peaked at {peak / buffer:.2f} buffers"


@pytest.mark.parametrize("master_seed", [13, 2**32, 2**40 + 3, 2**64 - 1])
def test_sweep_seeds_equal_per_row_derive_seeds(car_experiment, monkeypatch, master_seed):
    planned, _ = car_experiment
    grid, n_runs, call_size = [0.02, 0.05, 0.09, 0.11, 0.12], 7, 10
    # Kernel calls of 10 runs cut rows of 7; each call hashes its own seeds.
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", call_size)
    calls = []
    original = simulate._seed_words

    def recorded(seeds):
        calls.append(seeds.tolist())
        return original(seeds)

    monkeypatch.setattr(simulate, "_seed_words", recorded)
    sweep_epsilon(planned.policy, grid, n_runs, master_seed)
    pairs = [(i, j) for i in range(len(grid)) for j in range(n_runs)]
    expected = []
    for tag in (0, 1):  # closed loop, then open loop
        for first in range(0, len(pairs), call_size):
            call = pairs[first : first + call_size]
            per_row = []
            for i in sorted({row for row, _ in call}):
                runs = np.array([j for row, j in call if row == i], dtype=np.uint32)
                per_row.append(_hash_seeds(master_seed, _CTX_SWEEP, i, tag, runs))
            expected.append(np.concatenate(per_row).tolist())
    assert [len(c) for c in expected] == [10, 10, 10, 5] * 2
    assert calls == expected


@pytest.mark.parametrize("call_size, sizes", [(5, [5, 5, 5, 5, 1]), (15, [15, 6])])
@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_seeded_runs_equal_per_run_default_rng(car_experiment, monkeypatch, mode, call_size, sizes):
    # Rows of 7 runs: calls of 5 and of 15 both cut rows, and the last call is shorter.
    planned, _ = car_experiment
    policy = planned.policy
    k, n = policy.horizon, policy.model.state_dim
    eps, n_runs = [0.02, 0.07, 0.12], 7
    row_ids = np.array([4, 0, 2**32 - 1], dtype=np.uint32)
    key = (2**40 + 3, 9, row_ids, 2**33)
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", call_size)
    calls = _recorded_runs(policy, mode, eps, n_runs, key)
    assert [len(states) for states in calls] == sizes
    expected = np.empty((len(eps), n_runs, k + 1, n))
    for i, row in enumerate(expected):
        for j, run in enumerate(row):
            seed = derive_seed(2**40 + 3, 9, int(row_ids[i]), 2**33, j)
            run[1:] = np.random.default_rng(seed).standard_normal((k, n))
        rollout_states(policy, eps[i], mode, row)
    got = np.concatenate(calls)
    assert got.tobytes() == expected.reshape(got.shape).tobytes()


@pytest.mark.parametrize("call_size", [4, 5, 21])
def test_seeded_runs_grid_holds_each_runs_value(car_experiment, monkeypatch, call_size):
    # Rows of 5 runs: calls of 4 cut every row, calls of 21 hold all three.
    policy = car_experiment[0].policy
    eps, n_runs, key = [0.02, 0.07, 0.12], 5, (6, np.arange(3, dtype=np.uint32))
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", call_size)
    values = seeded_runs(policy, CLOSED_LOOP, eps, n_runs, key, lambda states: states[:, -1, 0])
    assert values.dtype == np.float64 and values.shape == (3, n_runs)
    assert values.flags.c_contiguous
    states = np.concatenate(_recorded_runs(policy, CLOSED_LOOP, eps, n_runs, key))
    assert values.tobytes() == states[:, -1, 0].tobytes()


def test_seeded_runs_reducer_may_overwrite_states(car_experiment, monkeypatch):
    policy = car_experiment[0].policy
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", 7)

    def overwriting(states):
        np.square(states, out=states)
        return np.add.reduce(states.reshape(len(states), -1), axis=1)

    def on_a_copy(states):
        return overwriting(states.copy())

    args = (policy, OPEN_LOOP, [0.03, 0.11], 10, (8, np.arange(2, dtype=np.uint32)))
    assert seeded_runs(*args, overwriting).tobytes() == seeded_runs(*args, on_a_copy).tobytes()


@pytest.mark.parametrize(
    "reduce",
    [
        lambda states: 1.0,
        lambda states: np.zeros((len(states), 1)),
        lambda states: np.zeros(len(states) - 1),
    ],
    ids=["scalar", "column", "short"],
)
def test_seeded_runs_reject_reducer_of_other_shape(car_experiment, monkeypatch, reduce):
    policy = car_experiment[0].policy
    steps = []
    original = simulate.rollout_states

    def counted(*args):
        steps.append(len(args[3]))
        return original(*args)

    monkeypatch.setattr(simulate, "rollout_states", counted)
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", 4)
    with pytest.raises(ValueError, match=re.escape("one value per run, shape (4,)")):
        seeded_runs(policy, CLOSED_LOOP, [0.05], 10, (3, 2), reduce)
    assert steps == [4]


def test_seeded_runs_check_n_runs_before_any_run(car_experiment, monkeypatch):
    planned, _ = car_experiment
    steps = []
    monkeypatch.setattr(simulate, "rollout_states", lambda *args: steps.append(args))
    for n_runs in (0, MAX_RUNS + 1):
        with pytest.raises(ValueError, match="n_runs"):
            seeded_runs(planned.policy, CLOSED_LOOP, [0.05], n_runs, (3, 2), steps.append)
    assert steps == []


@pytest.mark.parametrize(
    "call",
    [
        lambda p: p.model.validate_control([np.nan, 0.0]),
        lambda p: p.model.validate_control([0.0, np.nan]),
        lambda p: p.model.rollout_nominal(p.nominal.states[0], np.full_like(p.nominal.controls, np.nan)),
        lambda p: noise_sigma(p, np.nan),
        lambda p: noise_sigma(p, np.array([0.05, np.nan])),
        lambda p: estimate_exit_probability(p, np.nan, 0.05, 10),
        lambda p: estimate_exit_probability(p, 0.3, np.nan, 10),
        lambda p: sweep_epsilon(p, [0.01, np.nan], 2, 1),
        lambda p: sweep_epsilon(p, [np.nan], 2, 1),
        lambda p: action_functional(p, p.nominal.states, np.nan),
    ],
    ids=[
        "validate_control-v",
        "validate_control-phi",
        "rollout_nominal",
        "noise_sigma",
        "noise_sigma-per-run",
        "exit-delta",
        "exit-epsilon",
        "sweep-grid",
        "sweep-grid-single",
        "action_functional",
    ],
)
def test_nan_fails_the_range_checks(car_experiment, call):
    planned, _ = car_experiment
    with pytest.raises(ValueError):
        call(planned.policy)


def test_nmse_values_leaves_its_arguments_unchanged(car_experiment):
    planned, _ = car_experiment
    nominal = planned.policy.nominal
    before = nominal.states.copy()
    states = seeded_states(planned.policy, 0.05, CLOSED_LOOP, _seeds(10))
    kept = states.copy()
    nmse_values(nominal, states)
    assert np.array_equal(states, kept)
    assert np.array_equal(nominal.states, before)


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_rollout_states_leaves_its_arguments_unchanged(car_experiment, mode):
    planned, _ = car_experiment
    policy = planned.policy
    arguments = (policy.nominal.states, policy.nominal.controls, policy.gains)
    epsilon = np.linspace(0.0, 0.15, 12)
    key = (99, np.arange(12, dtype=np.uint32))
    before = [a.tobytes() for a in arguments + (epsilon, key[1])]
    layouts = []

    def layout(states):
        layouts.append((states.shape, states.flags.c_contiguous))
        return np.zeros(len(states))

    seeded_runs(policy, mode, epsilon, 1, key, layout)
    # nmse_values sums each run's entries in memory order, so the layout is part of the result.
    assert layouts == [((12, policy.horizon + 1, policy.model.state_dim), True)]
    assert [a.tobytes() for a in arguments + (epsilon, key[1])] == before


def test_monte_carlo_builds_no_seed_sequence_per_run(car_experiment, monkeypatch):
    # The seed hash runs on arrays, and numpy's PCG64 seeds itself from each
    # run's hashed words: one PCG64 and one Generator per run, nothing else.
    planned, _ = car_experiment
    counts = {}

    def counted(name):
        original = getattr(np.random, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("SeedSequence", "default_rng", "Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, counted(name))

    grid, n_runs = [0.02, 0.05, 0.08], 50
    sweep_epsilon(planned.policy, grid, n_runs, 3)
    runs = len(grid) * n_runs * 2
    assert counts == {"PCG64": runs, "Generator": runs}
    counts.clear()
    estimate_exit_probability(planned.policy, 0.3, 0.05, 3 * n_runs, seed=3)
    assert counts == {"PCG64": 3 * n_runs, "Generator": 3 * n_runs}


def test_mirrored_goal_mirrors_plan_gains_and_runs_bit_for_bit(car_experiment, monkeypatch):
    """y -> -y, theta -> -theta maps the whole pipeline onto itself, bit for bit.

    IEEE negation is exact, sin and tan are odd and cos is even in every
    kernel, and the squares and dot products carry no sign, so this holds on
    every BLAS and SIMD row where the pins do not. The closed-loop runs at
    eps = 0.15 include some that reach the singular steering clamp.
    """
    s, s_u = np.array([1.0, -1.0, -1.0]), np.array([1.0, -1.0])
    planned = car_experiment[0]
    cfg = planned.config
    cfg = dataclasses.replace(cfg, x0=tuple(s * cfg.x0), x_g=tuple(s * cfg.x_g))
    mirror = plan_experiment(cfg)
    fields = (
        "iterations",
        "cost_history",
        "final_cost",
        "terminal_position_error",
        "terminal_heading_error",
    )
    assert [getattr(mirror.report, f) for f in fields] == [getattr(planned.report, f) for f in fields]
    p, q = planned.policy, mirror.policy
    assert q.nominal.states.tobytes() == (p.nominal.states * s).tobytes()
    assert q.nominal.controls.tobytes() == (p.nominal.controls * s_u).tobytes()
    assert q.gains.tobytes() == (s_u[:, None] * p.gains * s).tobytes()
    # P_K is diag(wx) on both sides; S P_K S would write its zeros as -0.0.
    assert q.riccati[:-1].tobytes() == (s[:, None] * p.riccati[:-1] * s).tobytes()
    assert q.riccati[-1].tobytes() == p.riccati[-1].tobytes()

    z = np.random.default_rng(28).standard_normal((3000, p.horizon, 3))
    for mode in (CLOSED_LOOP, OPEN_LOOP):
        runs, mirrored = np.empty((2, 3000, p.horizon + 1, 3))
        runs[:, 1:], mirrored[:, 1:] = z, z * s
        rollout_states(p, 0.15, mode, runs)
        rollout_states(q, 0.15, mode, mirrored)
        assert mirrored.tobytes() == (runs * s).tobytes()
        assert nmse_values(q.nominal, mirrored).tobytes() == nmse_values(p.nominal, runs).tobytes()
        # tan(phi) at the clamp is about 3.5e15: only closed-loop runs reach it.
        assert (np.abs(runs[..., 2]) > 1e6).any() == (mode == CLOSED_LOOP)

    def exit_deviations(policy, sign):
        """The exit study's per-run maximum deviations, its normals times ``sign``."""
        worst = []

        def draw(words, out):
            _standard_normals(words, out)
            out *= sign

        def spy(*args):
            worst.append(seeded_runs(*args))
            return worst[-1]

        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_standard_normals", draw)
            patch.setattr(large_deviations, "seeded_runs", spy)
            estimate_exit_probability(policy, 0.3, 0.15, 3000, seed=28)
        return worst[0]

    assert exit_deviations(q, s).tobytes() == exit_deviations(p, 1.0).tobytes()
