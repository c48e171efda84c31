import numpy as np
import pytest

from tlqr import (
    DriftField,
    InsufficientData,
    action_functional,
    estimate_exit_probability,
    fit_rate,
    tracking_drift,
)
from tlqr.large_deviations import ExitEstimate


def zero_drift(dim=1, dt=0.1):
    return DriftField(rate=lambda t, x: np.zeros(dim), dt=dt)


def make_estimate(eps, p):
    return ExitEstimate(
        delta=0.3, epsilon=eps, n_runs=100, n_exits=int(p * 100), p_hat=p,
        wilson_low=0.0, wilson_high=1.0,
    )


def test_nominal_path_has_zero_action(car_experiment):
    planned, _ = car_experiment
    drift = tracking_drift(planned.policy)
    assert action_functional(drift, planned.policy.nominal.states, epsilon=0.07) == 0.0


def test_nominal_is_fixed_path_of_drift(car_experiment):
    planned, _ = car_experiment
    drift = tracking_drift(planned.policy)
    nominal = planned.policy.nominal.states
    for t in range(planned.policy.horizon):
        step = nominal[t] + drift.dt * drift.rate(t, nominal[t])
        np.testing.assert_allclose(step, nominal[t + 1], atol=1e-12)


def test_straight_line_action_closed_form():
    # zero drift, unit-speed straight line over one second, eps = 1 -> 1/2
    steps, dt = 10, 0.1
    path = (np.arange(steps + 1) * dt).reshape(-1, 1)
    action = action_functional(zero_drift(dt=dt), path, epsilon=1.0)
    assert action == pytest.approx(0.5, abs=1e-12)


def test_action_epsilon_scaling():
    path = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
    field = zero_drift(dt=1.0 / 7)
    s1 = action_functional(field, path, epsilon=0.2)
    s2 = action_functional(field, path, epsilon=0.1)
    assert s2 == pytest.approx(4.0 * s1, rel=1e-12)


def test_action_validation(car_experiment):
    field = zero_drift()
    with pytest.raises(ValueError):
        action_functional(field, np.zeros((3, 1)), epsilon=0.0)
    with pytest.raises(ValueError):
        action_functional(field, np.zeros((1, 1)), epsilon=1.0)
    # The tracking drift is defined for K steps, so a path of K+2 states fails.
    planned, _ = car_experiment
    nominal = planned.policy.nominal.states
    too_long = np.vstack([nominal, nominal[-1:]])
    with pytest.raises(ValueError):
        action_functional(tracking_drift(planned.policy), too_long, epsilon=1.0)


def test_action_refinement_stability():
    # linear drift, linear path: halving the grid moves the sum by <= 1%
    def action_on_grid(n):
        dt = 1.0 / n
        field = DriftField(rate=lambda t, x: -0.3 * x, dt=dt)
        path = (1.0 + np.arange(n + 1) * dt).reshape(-1, 1)
        return action_functional(field, path, epsilon=1.0)

    coarse, fine = action_on_grid(64), action_on_grid(128)
    assert abs(coarse - fine) / fine <= 0.01


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


def test_wilson_interval_brackets_estimate(car_experiment):
    planned, _ = car_experiment
    est = estimate_exit_probability(
        planned.policy, delta=0.3, epsilon=0.05, n_runs=300, seed=4
    )
    assert 0.0 <= est.wilson_low <= est.p_hat <= est.wilson_high <= 1.0


def test_fit_rate_recovers_synthetic_exponent():
    a = 0.02
    ests = [make_estimate(eps, float(np.exp(-a / eps**2))) for eps in (0.05, 0.1, 0.15)]
    fit = fit_rate(ests)
    assert fit.slope == pytest.approx(-a, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_rate_flat_data():
    ests = [make_estimate(eps, 0.5) for eps in (0.05, 0.1, 0.15)]
    fit = fit_rate(ests)
    assert fit.slope == pytest.approx(0.0, abs=1e-15)


def test_fit_rate_insufficient_data():
    ests = [make_estimate(0.05, 0.0), make_estimate(0.1, 1.0), make_estimate(0.15, 0.4)]
    with pytest.raises(InsufficientData):
        fit_rate(ests)


def test_estimate_validation(car_experiment):
    planned, _ = car_experiment
    with pytest.raises(ValueError):
        estimate_exit_probability(planned.policy, delta=0.0, epsilon=0.1)
    with pytest.raises(ValueError):
        estimate_exit_probability(
            planned.policy, delta=0.3, epsilon=0.1, n_runs=0
        )
