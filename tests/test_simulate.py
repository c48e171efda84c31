import dataclasses

import numpy as np
import pytest

from tlqr import (
    CLOSED_LOOP,
    OPEN_LOOP,
    BoundViolation,
    NoiseModel,
    NominalTrajectory,
    TrackingPolicy,
    derive_seed,
    derive_seeds,
    estimate_exit_probability,
    feedback_control,
    nmse_values,
    noise_scale,
    rollout_states,
    sweep_epsilon,
)
from tlqr import simulate
from tlqr.config import FULL_GRID, epsilon_grid
from tlqr.simulate import _CTX_SWEEP, _standard_normals


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
    control bounds before its transition.
    """
    if mode not in (CLOSED_LOOP, OPEN_LOOP):
        raise ValueError(f"unknown mode '{mode}'")
    model = policy.model
    k = policy.horizon
    noise = NoiseModel(epsilon, noise_scale(policy.nominal.controls), model.state_dim)
    noises = noise.sample(np.random.default_rng(seed), k)

    states = np.empty((k + 1, model.state_dim))
    controls = np.empty((k, model.control_dim))
    states[0] = policy.nominal.states[0]
    for t in range(k):
        if mode == CLOSED_LOOP:
            u = feedback_control(policy, t, states[t])
        else:
            u = policy.nominal.controls[t]
        controls[t] = u
        model.validate_control(u)
        states[t + 1] = model.transition(states[t], u) + noises[t]
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
        sweep_epsilon(planned.policy, [0.1, 0.2], simulate.MAX_RUNS + 1, 1)
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
    batch = rollout_states(planned.policy, epsilon, OPEN_LOOP, seeds)
    assert batch.shape == (300, planned.policy.horizon + 1, 3)
    for j, seed in enumerate(seeds):
        run = rollout(planned.policy, epsilon, OPEN_LOOP, seed)
        assert np.array_equal(batch[j], run.states)


@pytest.mark.parametrize("epsilon", [0.01, 0.06, 0.1, 0.147])
def test_rollout_states_closed_loop_matches_rollout(car_experiment, epsilon):
    # Both paths apply the one feedback_control, so they agree bit for bit.
    # The seeds include the full-grid sweep's closed-loop runs at epsilon; at
    # 0.147 one of them clamps the steering next to pi/2 and |theta| blows up.
    planned, _ = car_experiment
    row = list(epsilon_grid(*FULL_GRID)).index(epsilon)
    sweep_seeds = [
        derive_seed(planned.config.master_seed, _CTX_SWEEP, row, 0, j) for j in range(100)
    ]
    seeds = _seeds(300) + sweep_seeds
    batch = rollout_states(planned.policy, epsilon, CLOSED_LOOP, seeds)
    for j, seed in enumerate(seeds):
        run = rollout(planned.policy, epsilon, CLOSED_LOOP, seed)
        assert np.array_equal(batch[j], run.states)


def test_rollout_states_zero_noise_closed_loop_is_nominal(car_experiment):
    planned, _ = car_experiment
    batch = rollout_states(planned.policy, 0.0, CLOSED_LOOP, _seeds(5))
    for states in batch:
        assert np.array_equal(states, planned.policy.nominal.states)


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_rollout_states_run_independent_of_batch_position(car_experiment, mode):
    planned, _ = car_experiment
    seeds = _seeds(100)
    batch = rollout_states(planned.policy, 0.08, mode, seeds)
    reversed_batch = rollout_states(planned.policy, 0.08, mode, seeds[::-1])
    assert np.array_equal(reversed_batch[::-1], batch)
    for j, seed in enumerate(seeds):
        alone = rollout_states(planned.policy, 0.08, mode, [seed])
        assert np.array_equal(alone[0], batch[j])


def test_rollout_states_rejects_bad_arguments(car_experiment):
    planned, _ = car_experiment
    with pytest.raises(ValueError, match="nonnegative"):
        rollout_states(planned.policy, -0.01, CLOSED_LOOP, [1])
    with pytest.raises(ValueError, match="unknown mode"):
        rollout_states(planned.policy, 0.05, "sideways", [1])


def test_rollout_states_open_loop_rejects_out_of_bounds_nominal(car_experiment):
    planned, _ = car_experiment
    policy = _out_of_bounds_open_loop_policy(planned)
    with pytest.raises(BoundViolation):
        rollout_states(policy, 0.05, OPEN_LOOP, [1, 2])
    with pytest.raises(BoundViolation):
        rollout(policy, 0.05, OPEN_LOOP, 1)


# -- batched seeding: derive_seeds and the reused generator against their oracle --


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
def test_derive_seeds_equals_derive_seed(master_seed, tags):
    got = derive_seeds(master_seed, tags, 300)
    assert got.dtype == np.uint64 and got.shape == (300,)
    assert got.tolist() == [derive_seed(master_seed, *tags, j) for j in range(300)]


def test_derive_seeds_rejects_negative_values():
    for master_seed, tags in ((-1, ()), (3, (-2,))):
        with pytest.raises(ValueError):
            derive_seed(master_seed, *tags)
        with pytest.raises(ValueError):
            derive_seeds(master_seed, tags, 4)
    assert derive_seeds(3, (1,), 0).shape == (0,)


def test_reused_generator_streams_equal_default_rng():
    # 0 through 2**32 - 1 seed SeedSequence with one word, 2**32 and up with two.
    edge = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
    seeds = np.array(edge + derive_seeds(2**33 + 5, (_CTX_SWEEP,), 500).tolist(), dtype=np.uint64)
    out = np.empty((len(seeds), 20, 3))
    _standard_normals(seeds, out)
    for draws, seed in zip(out, seeds.tolist()):
        assert np.array_equal(draws, np.random.default_rng(seed).standard_normal((20, 3)))


def test_rollout_states_seeds_outside_64_bits_raise(car_experiment):
    planned, _ = car_experiment
    for seeds in ([-1], [2**64], [3, -5]):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            rollout_states(planned.policy, 0.05, CLOSED_LOOP, seeds)
    # A seed list that numpy would coerce to float64 keeps every bit.
    top = [2**64 - 1, 1]
    batch = rollout_states(planned.policy, 0.05, CLOSED_LOOP, top)
    for states, seed in zip(batch, top):
        assert np.array_equal(states, rollout(planned.policy, 0.05, CLOSED_LOOP, seed).states)


# -- one kernel call per run budget --


@pytest.mark.parametrize("mode", [CLOSED_LOOP, OPEN_LOOP])
def test_per_run_epsilon_equals_per_epsilon_calls(car_experiment, mode):
    planned, _ = car_experiment
    eps = [0.01, 0.06, 0.147]
    seeds = _seeds(120)
    run_eps = np.repeat(eps, 40)
    batch = rollout_states(planned.policy, run_eps, mode, seeds)
    for i, e in enumerate(eps):
        rows = slice(40 * i, 40 * (i + 1))
        assert np.array_equal(batch[rows], rollout_states(planned.policy, e, mode, seeds[rows]))


def test_rollout_states_per_run_epsilon_validation(car_experiment):
    planned, _ = car_experiment
    with pytest.raises(ValueError, match="nonnegative"):
        rollout_states(planned.policy, [0.05, -0.01], CLOSED_LOOP, [1, 2])
    with pytest.raises(ValueError):
        rollout_states(planned.policy, [0.05, 0.06, 0.07], CLOSED_LOOP, [1, 2])


def test_sweep_rows_independent_of_runs_per_call(car_experiment, monkeypatch):
    planned, _ = car_experiment
    grid, n_runs = [0.02, 0.05, 0.09, 0.11], 30

    def sweep():
        rows = sweep_epsilon(planned.policy, grid, n_runs, 13)
        return np.array([dataclasses.astuple(r) for r in rows])

    default = sweep()
    for budget in (n_runs, len(grid) * n_runs, 1):
        monkeypatch.setattr(simulate, "_RUNS_PER_CALL", budget)
        assert np.array_equal(sweep(), default)


@pytest.mark.parametrize("master_seed", [13, 2**32, 2**40 + 3, 2**64 - 1])
def test_sweep_seeds_equal_per_row_derive_seeds(car_experiment, monkeypatch, master_seed):
    planned, _ = car_experiment
    grid, n_runs = [0.02, 0.05, 0.09, 0.11, 0.12], 7
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", 2 * n_runs)
    calls = []
    original = simulate.rollout_states

    def recorded(policy, epsilon, mode, seeds):
        calls.append((mode, seeds.tolist()))
        return original(policy, epsilon, mode, seeds)

    monkeypatch.setattr(simulate, "rollout_states", recorded)
    sweep_epsilon(planned.policy, grid, n_runs, master_seed)
    expected = []
    for mode, tag in ((CLOSED_LOOP, 0), (OPEN_LOOP, 1)):
        for rows in ([0, 1], [2, 3], [4]):
            per_row = [derive_seeds(master_seed, (_CTX_SWEEP, i, tag), n_runs) for i in rows]
            expected.append((mode, np.concatenate(per_row).tolist()))
    assert calls == expected


def test_nmse_values_leaves_its_arguments_unchanged(car_experiment):
    planned, _ = car_experiment
    nominal = planned.policy.nominal
    before = nominal.states.copy()
    states = rollout_states(planned.policy, 0.05, CLOSED_LOOP, _seeds(10))
    kept = states.copy()
    nmse_values(nominal, states)
    assert np.array_equal(states, kept)
    assert np.array_equal(nominal.states, before)


def test_monte_carlo_builds_no_seed_sequence_per_run(car_experiment, monkeypatch):
    # Per-run seeding would construct these through np.random once per run.
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

    def constructions(n_runs):
        counts.clear()
        sweep_epsilon(planned.policy, [0.02, 0.05, 0.08], n_runs, 3)
        estimate_exit_probability(planned.policy, 0.3, 0.05, 3 * n_runs, seed=3)
        return dict(counts)

    small = constructions(50)
    assert small.get("SeedSequence", 0) == 0 and small.get("default_rng", 0) == 0
    assert constructions(100) == small
