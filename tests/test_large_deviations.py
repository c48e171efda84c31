import dataclasses

import numpy as np
import pytest

import tlqr.simulate as simulate
from conftest import LinearSystem, seeded_states
from tlqr.dynamics import NominalTrajectory
from tlqr.large_deviations import (
    action_functional,
    estimate_exit_probability,
    exit_study,
    fit_rate,
    linear_fit,
    wilson_interval,
)
from tlqr.lqr import TrackingPolicy, feedback_rows
from tlqr.simulate import CLOSED_LOOP, _CTX_LDP, derive_seed, noise_sigma


def scalar_policy(controls):
    """x_{t+1} = x_t + u_t with gain 0.5, tracking the nominal the controls drive from 0."""
    controls = np.asarray(controls, dtype=float).reshape(-1, 1)
    states = np.concatenate([[0.0], np.cumsum(controls)]).reshape(-1, 1)
    k = len(controls)
    return TrackingPolicy(
        nominal=NominalTrajectory(states=states, controls=controls),
        gains=np.full((k, 1, 1), 0.5),
        riccati=np.ones((k + 1, 1, 1)),
        closed_loop=np.full((k, 1, 1), 0.5),
        model=LinearSystem(a=[[1.0]], b=[[1.0]]),
    )


def test_nominal_path_has_zero_action(car_experiment):
    planned, _ = car_experiment
    assert action_functional(planned.policy, planned.policy.nominal.states, epsilon=0.07) == 0.0


def test_nominal_is_fixed_path_of_drift(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    nominal = policy.nominal.states
    u = np.empty((2, 1))
    for t in range(policy.horizon):
        x = nominal[t][:, None]
        step = policy.model.step_rows(x, feedback_rows(policy, t, x, u), np.empty((3, 1)))
        np.testing.assert_allclose(step[:, 0], nominal[t + 1], atol=1e-12)


def test_action_scalar_hand_value():
    # Nominal 0, 1, 2 under u = 1, 1 (sigma = eps). The path 0, 1.5, 2 leaves
    # residuals 0.5 and 2 - (1.5 + 0.75) = -0.25: energy 0.3125, and at
    # eps = 0.5 the action is 0.3125 / (2 * 0.25).
    policy = scalar_policy([1.0, 1.0])
    path = np.array([[0.0], [1.5], [2.0]])
    assert action_functional(policy, path, epsilon=0.5) == 0.625


@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1])
def test_action_is_noise_energy_of_kernel_paths(car_experiment, epsilon):
    planned, _ = car_experiment
    policy = planned.policy
    seeds = [derive_seed(42, j) for j in range(50)]
    paths = seeded_states(policy, epsilon, CLOSED_LOOP, seeds)
    sigma = noise_sigma(policy, epsilon)
    for path, seed in zip(paths, seeds):
        w = sigma * np.random.default_rng(seed).standard_normal((policy.horizon, 3))
        energy = float(np.sum(w * w)) / (2.0 * sigma**2)
        assert action_functional(policy, path, epsilon) == pytest.approx(energy, rel=1e-12)


def test_action_epsilon_scaling(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    path = seeded_states(policy, 0.05, CLOSED_LOOP, [derive_seed(42, 0)])[0]
    s1 = action_functional(policy, path, epsilon=0.2)
    # Halving epsilon scales sigma^2 by exactly 1/4, a power of two.
    assert action_functional(policy, path, epsilon=0.1) == 4.0 * s1
    assert action_functional(policy, path, epsilon=0.05) == 16.0 * s1


def test_action_zero_noise_scale():
    # All planned controls zero: sigma = 0 at every epsilon.
    policy = scalar_policy([0.0, 0.0])
    assert action_functional(policy, np.zeros((3, 1)), epsilon=0.1) == 0.0
    assert action_functional(policy, np.array([[0.0], [1.0], [0.5]]), epsilon=0.1) == np.inf


def test_action_validation(car_experiment):
    planned, _ = car_experiment
    nominal = planned.policy.nominal.states
    with pytest.raises(ValueError):
        action_functional(planned.policy, nominal, epsilon=0.0)
    with pytest.raises(ValueError):
        action_functional(planned.policy, nominal, epsilon=-0.1)
    with pytest.raises(ValueError):
        action_functional(planned.policy, nominal[:1], epsilon=1.0)
    # The tracking law is defined for K steps, so a path of K+2 states fails.
    too_long = np.vstack([nominal, nominal[-1:]])
    with pytest.raises(ValueError, match=r"path needs 2 to K\+1"):
        action_functional(planned.policy, too_long, epsilon=1.0)
    for wrong_dim in (nominal[:, :2], nominal[:, :, None]):
        with pytest.raises(ValueError, match="path has shape"):
            action_functional(planned.policy, wrong_dim, epsilon=1.0)


def test_exit_probability_zero_noise(car_experiment):
    planned, _ = car_experiment
    est = estimate_exit_probability(
        planned.policy, delta=1e-9, epsilon=0.0, n_runs=10, seed=1
    )
    assert est.p_hat == 0.0


def test_exit_probability_infinite_tube(car_experiment):
    planned, _ = car_experiment
    est = estimate_exit_probability(
        planned.policy, delta=np.inf, epsilon=0.3, n_runs=20, seed=2
    )
    assert est.p_hat == 0.0
    assert est.wilson_high > 0.0  # zero exits still carry a valid upper bound


def test_exit_monotone_in_delta_same_seed(car_experiment):
    planned, _ = car_experiment
    kwargs = dict(epsilon=0.06, n_runs=200, seed=5)
    small = estimate_exit_probability(planned.policy, delta=0.2, **kwargs)
    large = estimate_exit_probability(planned.policy, delta=0.35, **kwargs)
    assert large.n_exits <= small.n_exits  # nested events, identical trajectories


def test_exit_monotone_in_epsilon(car_experiment):
    planned, _ = car_experiment
    lo = estimate_exit_probability(
        planned.policy, delta=0.3, epsilon=0.05, n_runs=500, seed=9
    )
    hi = estimate_exit_probability(
        planned.policy, delta=0.3, epsilon=0.15, n_runs=500, seed=9
    )
    assert lo.p_hat <= hi.p_hat


@pytest.mark.parametrize("cap", [1, 7, 119])
def test_chunked_estimate_equals_one_call(car_experiment, monkeypatch, cap):
    # Runs keep their seeds whatever the chunking, so the exits add up exactly.
    planned, _ = car_experiment
    kwargs = dict(delta=0.25, epsilon=0.06, n_runs=120, seed=17)
    one_call = estimate_exit_probability(planned.policy, **kwargs)
    assert 0 < one_call.n_exits < one_call.n_runs
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", cap)
    chunked = estimate_exit_probability(planned.policy, **kwargs)
    assert dataclasses.astuple(chunked) == dataclasses.astuple(one_call)


def test_exit_count_equals_norm_of_crafted_deviations(car_experiment, monkeypatch):
    # The deviation is computed in place in each call's states; on states
    # with NaN and +-inf entries its exit count must equal the one from
    # np.linalg.norm on a copy, and a NaN deviation must count as an exit.
    # The kernel is replaced by one that steps to the crafted states, in
    # calls of 120 runs.
    planned, _ = car_experiment
    nominal = planned.policy.nominal.states
    monkeypatch.setattr(simulate, "_RUNS_PER_CALL", 120)

    def exit_count(runs, delta):
        stepped = iter(runs)

        def crafted_rollout(policy, epsilon, mode, states):
            for run in states:
                run[...] = next(stepped)

        monkeypatch.setattr(simulate, "rollout_states", crafted_rollout)
        return estimate_exit_probability(planned.policy, delta, 0.1, len(runs), seed=3).n_exits

    rng = np.random.default_rng(41)
    scale = rng.exponential(size=(200, 1, 1))
    states = nominal + scale * rng.standard_normal((200,) + nominal.shape)
    special = rng.random(states.shape) < 0.002
    states[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
    states[0] = nominal
    states[0, 3, 1] = np.nan  # a run that otherwise stays on the nominal
    worst = np.linalg.norm(states - nominal, axis=2).max(axis=1)
    delta = float(np.nanmedian(worst))
    assert 0 < exit_count(states, delta) == np.count_nonzero(~(worst <= delta)) < 200
    assert exit_count(states[:1], 1e300) == 1


def test_overflowed_runs_exit_without_warnings(car_experiment):
    # At epsilon 1.7e308 the noise overflows and every run's deviation is NaN;
    # warnings are errors here, so a numpy RuntimeWarning fails the test.
    planned, _ = car_experiment
    est = estimate_exit_probability(planned.policy, delta=0.3, epsilon=1.7e308, n_runs=50, seed=5)
    assert est.n_exits == est.n_runs == 50
    assert est.p_hat == 1.0


def test_wilson_interval_brackets_estimate(car_experiment):
    planned, _ = car_experiment
    est = estimate_exit_probability(
        planned.policy, delta=0.3, epsilon=0.05, n_runs=300, seed=4
    )
    assert 0.0 <= est.wilson_low <= est.p_hat <= est.wilson_high <= 1.0


def test_wilson_interval_needs_a_trial():
    assert wilson_interval(0, 1)[0] == 0.0
    with pytest.raises(ValueError, match="trials"):
        wilson_interval(0, 0)


@pytest.mark.parametrize(
    "x, y, message",
    [
        ([1.0, 2.0, 3.0], [1.0, 2.0], "equal length"),
        ([[1.0, 2.0]], [[1.0, 2.0]], "1-d"),
        ([0.5, 0.5, 0.5], [1.0, 2.0, 3.0], "degenerate"),
    ],
    ids=["unequal_lengths", "two_dimensional", "constant_x"],
)
def test_linear_fit_rejects_unfit_data(x, y, message):
    with pytest.raises(ValueError, match=message):
        linear_fit(np.array(x), np.array(y))


def test_fit_rate_recovers_synthetic_exponent():
    a = 0.02
    epsilons = (0.05, 0.1, 0.15)
    fit = fit_rate(epsilons, [float(np.exp(-a / eps**2)) for eps in epsilons])
    assert fit.slope == pytest.approx(-a, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_rate_flat_data():
    fit = fit_rate((0.05, 0.1, 0.15), (0.5, 0.5, 0.5))
    assert fit.slope == pytest.approx(0.0, abs=1e-15)


def test_fit_rate_insufficient_data():
    assert fit_rate((0.05, 0.1, 0.15), (0.0, 1.0, 0.4)) is None


def test_fit_rate_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        fit_rate((0.05, 0.1, 0.15), (0.2, 0.3))
    with pytest.raises(ValueError):
        fit_rate((0.05, 0.1), (0.2, 0.3, 0.4))


@pytest.mark.parametrize(
    "delta,epsilons,fitted",
    [(0.25, (0.04, 0.05, 0.06, 0.07), True), (0.3, (0.01, 0.02, 0.07), False)],
)
def test_exit_study_equals_per_estimate_oracle(car_experiment, delta, epsilons, fitted):
    planned, _ = car_experiment
    master_seed = 2**40 + 7
    estimates, fit = exit_study(planned.policy, delta, epsilons, 150, master_seed)
    oracle = [
        estimate_exit_probability(
            planned.policy, delta, eps, 150, derive_seed(master_seed, _CTX_LDP, i)
        )
        for i, eps in enumerate(epsilons)
    ]
    assert estimates == oracle
    assert fit == fit_rate(epsilons, [e.p_hat for e in oracle])
    assert (fit is not None) == fitted


def test_estimate_validation(car_experiment):
    planned, _ = car_experiment
    with pytest.raises(ValueError):
        estimate_exit_probability(planned.policy, delta=0.0, epsilon=0.1)
    with pytest.raises(ValueError):
        estimate_exit_probability(
            planned.policy, delta=0.3, epsilon=0.1, n_runs=0
        )
