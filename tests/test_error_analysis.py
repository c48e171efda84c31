import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlqr.error_analysis as error_analysis
import tlqr.verify as verify
from conftest import padded_batch_members, random_ltv_instance, seeded_states
from tlqr.error_analysis import (
    cost_error_sensitivities,
    cost_error_statistics,
    first_order_cost_error,
    linear_deviations,
    linearize_cost,
    skewness_kurtosis,
)
from tlqr.large_deviations import linear_fit
from tlqr.lqr import LqrWeights, closed_loop_matrices, linearize_along, riccati_backward
from tlqr.planner import goal_tracking_cost
from tlqr.simulate import CLOSED_LOOP, _CTX_RECONSTRUCTION, derive_seed, noise_sigma
from tlqr.verify import _control_sums, _noise_maps, _state_sums, propagation_errors


def _coefficient_sums(cx, cu, cx_terminal, maps, gains):
    """Oracle: v_s = sum_t w_{s,t}, the paper's per-(noise, cost term) coefficients.

    For a stage term t <= K-1, w_{s,t} = cx_t M - cu_t L_t M with
    M = M(s, t-1); the terminal term contributes cx_K M(s, K-1).
    """
    k = len(cx)
    v = np.zeros((k, maps.shape[-1]))
    for s in range(k):
        for t in range(s + 1, k):
            m = maps[s, t - 1]
            v[s] += cx[t] @ m - cu[t] @ (gains[t] @ m)
        v[s] += cx_terminal @ maps[s, k - 1]
    return v


def scalar_stack(values):
    return np.array(values, dtype=float).reshape(-1, 1, 1)


def random_cost_linearization(rng, k, n_x, n_u):
    """Random (cx, cu, cx_K), entries uniform in [-1, 1]."""
    return (
        rng.uniform(-1, 1, size=(k, n_x)),
        rng.uniform(-1, 1, size=(k, n_u)),
        rng.uniform(-1, 1, size=n_x),
    )


def test_closed_loop_matrices_conventions(car_experiment):
    rng = np.random.default_rng(2)
    a, b, weights = random_ltv_instance(rng, max_nx=3, max_k=8)
    gains, _ = riccati_backward(a, b, weights)
    d = closed_loop_matrices(a, b, gains)
    for t in range(len(a)):
        np.testing.assert_allclose(d[t], a[t] - b[t] @ gains[t], atol=1e-15)
    # no feedback or no actuation leaves A unchanged
    zero_gains = np.zeros_like(gains)
    np.testing.assert_array_equal(closed_loop_matrices(a, b, zero_gains), a)
    ones = np.ones((2, 1, 1))
    d_scalar = closed_loop_matrices(ones, ones, np.full((2, 1, 1), 0.5))
    assert d_scalar[1, 0, 0] == 0.5
    # the policy stores exactly the builder's output for its own linearization
    planned, _ = car_experiment
    policy = planned.policy
    a, b = linearize_along(policy.model, policy.nominal)
    np.testing.assert_array_equal(policy.closed_loop, closed_loop_matrices(a, b, policy.gains))


def test_product_table_identities():
    rng = np.random.default_rng(4)
    d = rng.uniform(-1, 1, size=(6, 3, 3))
    maps = _noise_maps(d)
    for t in range(6):
        np.testing.assert_array_equal(maps[t, t], np.eye(3))
        if t > 0:
            np.testing.assert_array_equal(maps[t - 1, t], d[t])
    for s in range(6):
        for t in range(s):
            np.testing.assert_array_equal(maps[s, t], np.zeros((3, 3)))
        for t in range(s + 1, 6):
            oracle = np.eye(3)  # independent association order
            for u in range(s + 1, t + 1):
                oracle = oracle @ d[s + 1 + t - u]
            np.testing.assert_allclose(maps[s, t], oracle, atol=1e-12)
            np.testing.assert_allclose(maps[s, t], d[t] @ maps[s, t - 1], atol=1e-12)


def test_state_error_scalar_hand_value():
    d = scalar_stack([2.0, 0.5])
    noises = np.array([[1.0], [1.0]])
    out = _state_sums(_noise_maps(d), noises)
    assert out[2, 0] == pytest.approx(1.5, abs=1e-15)
    assert linear_deviations(d, np.zeros((2, 1, 1)), noises)[0][2, 0] == pytest.approx(
        1.5, abs=1e-15
    )
    np.testing.assert_array_equal(_state_sums(_noise_maps(d), np.zeros((2, 1))), np.zeros((3, 1)))


def test_control_error_scalar_hand_value():
    d = scalar_stack([2.0, 0.5, 3.0])
    gains = scalar_stack([0.1, 0.2, 0.5])
    noises = np.array([[1.0], [1.0], [1.0]])
    out = _control_sums(_noise_maps(d), gains, noises)
    assert out[2, 0] == pytest.approx(-0.75, abs=1e-15)
    assert linear_deviations(d, gains, noises)[1][2, 0] == pytest.approx(-0.75, abs=1e-15)


def test_error_length_validation():
    d = np.ones((2, 1, 1))
    gains = np.ones((2, 1, 1))
    with pytest.raises(ValueError):
        linear_deviations(d, gains, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        linear_deviations(d, gains, np.zeros((2, 2)))
    lin = np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(1)
    with pytest.raises(ValueError):
        cost_error_sensitivities(*lin, d, gains)
    with pytest.raises(ValueError):
        first_order_cost_error(*lin, np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        first_order_cost_error(*lin, np.zeros((5, 1)), np.zeros((3, 1)))


def test_nonrecursive_matches_recursive_and_feedback_identity():
    errors = propagation_errors(n_instances=200, seed=99)
    assert errors["max_state_rel"] <= 1e-9
    assert errors["max_identity_abs"] <= 1e-12
    assert errors["max_reconstruction_rel"] <= 1e-9


def _per_instance_propagation_errors(n_instances, seed):
    """Reference: the propagation oracle one instance at a time, in draw order."""
    rng = np.random.default_rng(seed)
    max_state_rel = 0.0
    max_identity_abs = 0.0
    max_reconstruction_rel = 0.0
    for _ in range(n_instances):
        a, b, weights = random_ltv_instance(rng)
        gains, _ = riccati_backward(a, b, weights)
        d = closed_loop_matrices(a, b, gains)
        k, n_x, n_u = b.shape
        noises = rng.uniform(-1.0, 1.0, size=(k, n_x))
        states, controls = linear_deviations(d, gains, noises)
        maps = _noise_maps(d)
        gap = np.linalg.norm(_state_sums(maps, noises)[1:] - states[1:], axis=1)
        denom = np.maximum(np.linalg.norm(states[1:], axis=1), 1e-12)
        max_state_rel = max(max_state_rel, float((gap / denom).max()))
        resid = _control_sums(maps, gains, noises) - controls
        max_identity_abs = max(max_identity_abs, float(np.abs(resid).max()))
        lin = random_cost_linearization(rng, k, n_x, n_u)
        v = cost_error_sensitivities(*lin, d, gains)
        direct_value = first_order_cost_error(*lin, states, controls)
        rebuilt = float(np.sum(v * noises))
        denom = max(abs(direct_value), 1e-12)
        max_reconstruction_rel = max(max_reconstruction_rel, abs(rebuilt - direct_value) / denom)
    return {
        "max_state_rel": max_state_rel,
        "max_identity_abs": max_identity_abs,
        "max_reconstruction_rel": max_reconstruction_rel,
    }


@pytest.mark.parametrize("n_instances, seed", [(1000, 1001), (200, 99), (300, 7)])
def test_shape_batched_propagation_equals_per_instance_reference(n_instances, seed):
    assert propagation_errors(n_instances, seed) == _per_instance_propagation_errors(
        n_instances, seed
    )


def test_propagation_makes_one_riccati_and_one_sensitivity_sweep_per_batch(monkeypatch):
    # The instances as the suite draws them: (n_x, n_u, K) and the bytes of A.
    rng = np.random.default_rng(7)
    drawn = {}
    for i in range(1000):
        (n_x, n_u, k), row = verify._draw_instance(rng, verify._propagation_shapes)
        drawn[row[: k * n_x * n_x].tobytes()] = i, (n_x, n_u, k)
    batches, sensitivity_shapes = [], []
    original_riccati = verify.riccati_backward
    original_sensitivities = verify.cost_error_sensitivities

    def counted_riccati(a, b, weights):
        # An instance of horizon k fills the last k steps of its row; every
        # real step of A has nonzero entries.
        k_b, n_x, n_u = b.shape[-3:]
        real = np.abs(a).sum(axis=(-2, -1)) > 0
        horizons = real.sum(axis=1)
        assert (real == (np.arange(k_b) >= k_b - horizons[:, None])).all()
        found = [drawn[a_i[k_b - k :].tobytes()] for a_i, k in zip(a, horizons)]
        dims = [(n_x, n_u, k) for k in horizons]
        assert [shape for _, shape in found] == dims
        ids = [i for i, _ in found]
        batches.append((n_x, n_u, a.shape[:2], list(horizons), ids))
        return original_riccati(a, b, weights)

    def counted_sensitivities(cx, cu, cx_terminal, closed_loop, gains):
        sensitivity_shapes.append(gains.shape)
        return original_sensitivities(cx, cu, cx_terminal, closed_loop, gains)

    monkeypatch.setattr(verify, "riccati_backward", counted_riccati)
    monkeypatch.setattr(verify, "cost_error_sensitivities", counted_sensitivities)
    propagation_errors(n_instances=1000, seed=7)
    # One Riccati sweep and one sensitivity sweep per batch, on the same padded stack.
    assert len(sensitivity_shapes) == len(batches)
    for (n_x, n_u, stack, horizons, ids), shape in zip(batches, sensitivity_shapes):
        assert shape == stack + (n_u, n_x)
        # A batch is at most the batch size, sorted by horizon, padded to its longest.
        assert 1 <= len(ids) <= verify.PADDED_BATCH
        assert horizons == sorted(horizons) and horizons[-1] == stack[1]
    # Each batch lies inside one family, and together they hold every instance once.
    families = [(n_x, n_u) for n_x, n_u, *_ in batches]
    assert families == sorted(families)
    assert sorted(i for *_, ids in batches for i in ids) == list(range(1000))
    # A family's instances run in horizon order, in full batches but the last.
    for family in set(families):
        members = [batch for f, batch in zip(families, batches) if f == family]
        assert sum((horizons for *_, horizons, _ in members), []) == sorted(
            k for *_, horizons, _ in members for k in horizons
        )
        assert all(len(ids) == verify.PADDED_BATCH for *_, ids in members[:-1])
    # Some family fills more than one batch.
    assert len(set(families)) < len(batches) <= 1000 // verify.PADDED_BATCH + 8


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(n_instances=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(n_instances=1, seed=0)  # a single instance
@example(n_instances=3, seed=13019)  # three (n_x, n_u, K) = (4, 2, 6) instances: no padding
@example(n_instances=600, seed=1)  # seven families of 65 to 95 instances
def test_padded_propagation_batches_equal_unpadded_calls(n_instances, seed):
    """Each instance's cut of a front-padded batch is its own unpadded calls, byte for byte."""
    batches = padded_batch_members(verify._propagation_shapes, n_instances, seed)
    for (a, b, noises, cx, cu, cx_terminal), horizons, members in batches:
        # The batch's recursions, as propagation_errors runs them.
        gains, riccati = verify._identity_riccati(a, b)
        d = closed_loop_matrices(a, b, gains)
        states, controls = linear_deviations(d, gains, noises)
        v = cost_error_sensitivities(cx, cu, cx_terminal, d, gains)
        weights = LqrWeights(np.ones(a.shape[-1]), np.ones(b.shape[-1]))
        for i, (k, (a_i, b_i, noises_i, cx_i, cu_i, cx_terminal_i)) in enumerate(
            zip(horizons, members)
        ):
            one_gains, one_riccati = riccati_backward(a_i, b_i, weights)
            one_d = closed_loop_matrices(a_i, b_i, one_gains)
            one_states, one_controls = linear_deviations(one_d, one_gains, noises_i)
            expected = (
                one_gains,
                one_riccati,
                one_d,
                one_states,
                one_controls,
                cost_error_sensitivities(cx_i, cu_i, cx_terminal_i, one_d, one_gains),
            )
            cuts = [x[i, horizons[-1] - k :] for x in (gains, riccati, d, states, controls, v)]
            assert [x.shape for x in cuts] == [x.shape for x in expected]
            assert [x.tobytes() for x in cuts] == [x.tobytes() for x in expected]


@pytest.mark.parametrize("n_x, n_u, k", [(1, 1, 2), (1, 2, 5), (2, 2, 2), (3, 1, 7), (4, 2, 20)])
def test_batched_deviations_and_oracles_match_per_instance_rows(n_x, n_u, k):
    rng = np.random.default_rng(n_x * 100 + n_u * 10 + k)
    a = rng.uniform(-1, 1, size=(6, k, n_x, n_x))
    b = rng.uniform(-1, 1, size=(6, k, n_x, n_u))
    noises = rng.uniform(-1, 1, size=(6, k, n_x))
    weights = LqrWeights(np.ones(n_x), np.ones(n_u))
    gains, _ = riccati_backward(a, b, weights)
    d = closed_loop_matrices(a, b, gains)
    states, controls = linear_deviations(d, gains, noises)
    # One closed loop and one set of gains shared by every noise row.
    shared_states, shared_controls = linear_deviations(d[0], gains[0], noises)
    maps = _noise_maps(d)
    state_sums = _state_sums(maps, noises)
    control_sums = _control_sums(maps, gains, noises)
    for i in range(len(a)):
        one_states, one_controls = linear_deviations(d[i], gains[i], noises[i])
        np.testing.assert_array_equal(states[i], one_states)
        np.testing.assert_array_equal(controls[i], one_controls)
        row_states, row_controls = linear_deviations(d[0], gains[0], noises[i])
        assert shared_states[i].tobytes() == row_states.tobytes()
        assert shared_controls[i].tobytes() == row_controls.tobytes()
        one_maps = _noise_maps(d[i])
        np.testing.assert_array_equal(maps[i], one_maps)
        np.testing.assert_array_equal(state_sums[i], _state_sums(one_maps, noises[i]))
        np.testing.assert_array_equal(
            control_sums[i], _control_sums(one_maps, gains[i], noises[i])
        )


def test_first_index_convention_is_inert():
    rng = np.random.default_rng(12)
    a, b, weights = random_ltv_instance(rng, max_nx=3, max_k=10)
    gains, _ = riccati_backward(a, b, weights)
    d = closed_loop_matrices(a, b, gains)
    d_junk = d.copy()
    d_junk[0] = rng.uniform(-9, 9, size=d[0].shape)
    noises = rng.standard_normal(b.shape[:2])
    maps, maps_junk = _noise_maps(d), _noise_maps(d_junk)
    np.testing.assert_array_equal(maps, maps_junk)
    np.testing.assert_array_equal(_state_sums(maps, noises), _state_sums(maps_junk, noises))
    np.testing.assert_array_equal(
        linear_deviations(d, gains, noises)[0], linear_deviations(d_junk, gains, noises)[0]
    )
    lin = random_cost_linearization(rng, *b.shape)
    np.testing.assert_array_equal(
        cost_error_sensitivities(*lin, d, gains), cost_error_sensitivities(*lin, d_junk, gains)
    )


def test_linearize_cost_effort_only(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    cost = goal_tracking_cost(
        policy.model, planned.config.x_g, effort_weight=0.3, goal_weight=0.0, bound_weight=0.0
    )
    cx, cu, _ = linearize_cost(cost, policy.nominal)
    np.testing.assert_allclose(cu, 2 * 0.3 * policy.nominal.controls, atol=1e-15)
    assert np.all(cx == 0.0)


def test_linearize_cost_terminal_gradient_zero_at_goal():
    from tlqr.dynamics import KinematicCar, NominalTrajectory

    car = KinematicCar()
    goal = np.array([0.2, 0.1, 0.0])
    cost = goal_tracking_cost(car, goal, effort_weight=0.0, goal_weight=5.0, bound_weight=0.0)
    states = np.vstack([np.zeros(3), goal])
    traj = NominalTrajectory(states=states, controls=np.zeros((1, 2)))
    _, _, cx_terminal = linearize_cost(cost, traj)
    np.testing.assert_array_equal(cx_terminal, np.zeros(3))


def test_linearize_cost_matches_finite_differences(car_experiment):
    planned, _ = car_experiment
    _, cu, cx_terminal = linearize_cost(planned.cost, planned.policy.nominal)
    cost = planned.cost
    h = 1e-6
    for t in (0, 5, 19):
        u = planned.policy.nominal.controls[t]
        fd_u = np.array(
            [(cost.stage(u + h * e) - cost.stage(u - h * e)) / (2 * h) for e in np.eye(2)]
        )
        assert np.linalg.norm(cu[t] - fd_u) <= 1e-6 * max(np.linalg.norm(fd_u), 1.0)
    x_k = planned.policy.nominal.states[-1]
    fd_x = np.array(
        [
            (cost.terminal(x_k + h * e) - cost.terminal(x_k - h * e)) / (2 * h)
            for e in np.eye(3)
        ]
    )
    assert np.linalg.norm(cx_terminal - fd_x) <= 1e-6 * np.linalg.norm(fd_x)


def test_first_order_cost_error_zero_and_linear():
    lin = np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([[1.0], [2.0]]), np.array([3.0, -1.0])
    assert first_order_cost_error(*lin, np.zeros((3, 2)), np.zeros((2, 1))) == 0.0
    rng = np.random.default_rng(1)
    states, controls = rng.standard_normal((3, 2)), rng.standard_normal((2, 1))
    assert first_order_cost_error(*lin, 3.5 * states, 3.5 * controls) == pytest.approx(
        3.5 * first_order_cost_error(*lin, states, controls), rel=1e-12
    )


def test_coefficient_table_scalar_hand_values():
    # K = 2, unit cost gradients, D_1 = 0.5: the table entries (0,1) = 1.0,
    # (0,2) = 0.5 and (1,2) = 1.0 sum to v = [1.5, 1.0].
    d = scalar_stack([2.0, 0.5])
    gains = scalar_stack([0.5, 0.5])
    lin = np.ones((2, 1)), np.zeros((2, 1)), np.ones(1)
    v = cost_error_sensitivities(*lin, d, gains)
    np.testing.assert_allclose(v[:, 0], [1.5, 1.0], rtol=0, atol=1e-15)
    oracle = _coefficient_sums(*lin, _noise_maps(d), gains)
    np.testing.assert_allclose(oracle[:, 0], [1.5, 1.0], rtol=0, atol=1e-15)


def test_zero_cost_gradients_give_zero_coefficients():
    d = scalar_stack([1.0, 1.0, 1.0])
    gains = np.ones((3, 1, 1))
    lin = np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(1)
    assert np.all(cost_error_sensitivities(*lin, d, gains) == 0.0)
    assert np.all(_coefficient_sums(*lin, _noise_maps(d), gains) == 0.0)


def test_sensitivities_match_coefficient_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a, b, weights = random_ltv_instance(rng)
        gains, _ = riccati_backward(a, b, weights)
        d = closed_loop_matrices(a, b, gains)
        lin = random_cost_linearization(rng, *b.shape)
        v = cost_error_sensitivities(*lin, d, gains)
        oracle = _coefficient_sums(*lin, _noise_maps(d), gains)
        assert np.linalg.norm(v - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_cost_error_is_odd_and_additive_in_noise(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    lin = linearize_cost(planned.cost, policy.nominal)
    v = cost_error_sensitivities(*lin, policy.closed_loop, policy.gains)

    def evaluate(noises):
        return float(np.sum(v * noises))

    rng = np.random.default_rng(6)
    w1 = rng.standard_normal((policy.horizon, 3))
    w2 = rng.standard_normal((policy.horizon, 3))
    j1, j2 = evaluate(w1), evaluate(w2)
    scale = max(abs(j1), abs(j2))
    assert abs(evaluate(-w1) + j1) <= 1e-12 * scale
    assert evaluate(w1 + w2) == pytest.approx(j1 + j2, abs=1e-10 * scale)


def _looped_reconstruction_rel(planned):
    """Reference: the costerror suite's reconstruction, one (K, n) draw at a time."""
    policy = planned.policy
    lin = linearize_cost(planned.cost, policy.nominal)
    v = cost_error_sensitivities(*lin, policy.closed_loop, policy.gains)
    sigma = noise_sigma(policy, 0.05)
    rng = np.random.default_rng(derive_seed(planned.config.master_seed, _CTX_RECONSTRUCTION))
    max_rel = 0.0
    for _ in range(100):
        noises = sigma * rng.standard_normal(v.shape)
        direct = first_order_cost_error(
            *lin, *linear_deviations(policy.closed_loop, policy.gains, noises)
        )
        rebuilt = float(np.sum(v * noises))
        max_rel = max(max_rel, abs(rebuilt - direct) / max(abs(direct), 1e-12))
    return max_rel


def test_costerror_reconstruction_is_one_draw_equal_to_the_loop(car_experiment, monkeypatch):
    planned, _ = car_experiment
    calls = []
    original = verify.linear_deviations

    def counted(closed_loop, gains, noises):
        calls.append(noises.shape)
        return original(closed_loop, gains, noises)

    monkeypatch.setattr(verify, "linear_deviations", counted)
    report = verify.cost_error_suite(planned)
    assert calls == [(100, planned.policy.horizon, 3)]
    check = report.checks[0]
    assert check.name == "coefficient_reconstruction_rel"
    assert check.value == _looped_reconstruction_rel(planned)


def test_batched_first_order_cost_error_rows_equal_single_calls():
    rng = np.random.default_rng(44)
    lins = [random_cost_linearization(rng, 9, 3, 2) for _ in range(5)]
    states, controls = rng.uniform(-1, 1, size=(5, 10, 3)), rng.uniform(-1, 1, size=(5, 9, 2))
    stacked = [np.stack(x) for x in zip(*lins)]
    batched = first_order_cost_error(*stacked, states, controls)
    shared = first_order_cost_error(*lins[0], states, controls)
    assert batched.shape == shared.shape == (5,)
    for i, lin in enumerate(lins):
        assert batched[i] == first_order_cost_error(*lin, states[i], controls[i])
        assert shared[i] == first_order_cost_error(*lins[0], states[i], controls[i])
    with pytest.raises(ValueError):
        first_order_cost_error(*stacked, states[:, :9], controls)


def _car_sensitivities(planned):
    policy = planned.policy
    lin = linearize_cost(planned.cost, policy.nominal)
    return cost_error_sensitivities(*lin, policy.closed_loop, policy.gains)


def test_statistics_zero_epsilon_degenerate(car_experiment):
    planned, _ = car_experiment
    sigma = noise_sigma(planned.policy, 0.0)
    stats = cost_error_statistics(_car_sensitivities(planned), sigma, 500, seed=3)
    assert stats.mean == 0.0 and stats.sd == 0.0 and stats.z == 0.0


def test_statistics_mean_and_variance(car_experiment):
    planned, _ = car_experiment
    v = _car_sensitivities(planned)
    sigma = 0.05 * np.linalg.norm(planned.policy.nominal.controls, axis=1).max()
    stats = cost_error_statistics(v, sigma, 20000, seed=21)
    assert abs(stats.mean) <= 4 * stats.sd / np.sqrt(stats.n)
    assert stats.sd**2 == pytest.approx(sigma**2 * np.sum(v * v), rel=0.05)


def _reference_moments(x):
    """Reference: sample skewness and excess kurtosis, each from its own centered copy."""
    d = x - x.mean()
    m2 = np.mean(d * d)
    if m2 == 0.0:
        return 0.0, 0.0
    return float(np.mean(d**3) / m2**1.5), float(np.mean(d**4) / m2**2 - 3.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    x=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
    )
)
@example(x=np.zeros(7))
@example(x=np.full(100, 2.5))
@example(x=[1.0, 2.0, 4.0, 8.0])
@example(x=[-3.0, 0.0, 0.0, 0.0, 1e-3, 7.5])
@example(x=np.random.default_rng(31).standard_normal(100_000))
@example(x=np.random.default_rng(32).exponential(size=1_001) * 1e8)
# Offsets far above the spread: x - mean cancels most digits, and each
# recomputed deviation must round as the reference's one centred copy does.
@example(x=1e9 + np.random.default_rng(33).standard_normal(10_001))
@example(x=-3e12 + np.random.default_rng(34).exponential(size=999) * 1e-2)
@example(x=1e15 + np.arange(50.0))
def test_skewness_kurtosis_equal_reference_formulas(x):
    x = np.array(x, dtype=float)
    before = x.copy()
    moments = skewness_kurtosis(x)
    assert x.tobytes() == before.tobytes()
    assert moments == _reference_moments(x)


def _one_shot_statistics(v, sigma, n_samples, rng):
    """Reference: every cost-error sample from a single (n_samples, K n) draw."""
    samples = sigma * rng.standard_normal((n_samples, v.size)) @ v.ravel()
    mean, sd = float(samples.mean()), float(samples.std(ddof=1))
    skew, kurt = _reference_moments(samples)
    return error_analysis.CostErrorStats(
        n=n_samples,
        mean=mean,
        sd=sd,
        z=float(mean / (sd / np.sqrt(n_samples))),
        skewness=skew,
        kurtosis=kurt,
    )


@pytest.mark.parametrize("n_samples", [100_000, 20_000])
def test_chunked_statistics_equal_one_shot_draw(car_experiment, monkeypatch, n_samples):
    planned, _ = car_experiment
    v = _car_sensitivities(planned)
    sigma = noise_sigma(planned.policy, 0.05)
    drawn = []
    default_rng = np.random.default_rng

    class Recorded:
        """A generator that records the rows of every standard-normal draw."""

        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size=None, *, out=None):
            drawn.append(size if out is None else out.shape)
            return self.rng.standard_normal(size, out=out)

    monkeypatch.setattr(error_analysis.np.random, "default_rng", Recorded)
    seed = derive_seed(planned.config.master_seed, 4)
    stats = cost_error_statistics(v, sigma, n_samples, seed)
    rows = [shape[0] for shape in drawn]
    assert max(rows) == error_analysis.COST_ERROR_BLOCK and sum(rows) == n_samples
    reference = _one_shot_statistics(v, sigma, n_samples, default_rng(seed))
    assert dataclasses.astuple(stats) == dataclasses.astuple(reference)


@pytest.mark.parametrize("n_samples", [100_000, 20_000])
def test_statistics_do_not_depend_on_whole_block_size(car_experiment, monkeypatch, n_samples):
    planned, _ = car_experiment
    v = _car_sensitivities(planned)
    sigma = noise_sigma(planned.policy, 0.05)
    seed = derive_seed(planned.config.master_seed, 4)
    results = []
    for block in (500, 1_000, 2_000, 10_000):
        monkeypatch.setattr(error_analysis, "COST_ERROR_BLOCK", block)
        results.append(dataclasses.astuple(cost_error_statistics(v, sigma, n_samples, seed)))
    assert results[1:] == results[:-1]


def test_statistics_traced_peak_stays_below_3_mb(car_experiment):
    # 100,000 samples of K n = 60 noises each: (10,000, 60) blocks drawn one
    # allocation at a time peaked at 5.6 MB. Here the peak is the moments'
    # one 0.8 MB scratch array beside the 0.8 MB sample, 1.6 MB; the reused
    # (1,000, 60) buffer is freed before them.
    planned, _ = car_experiment
    v = _car_sensitivities(planned)
    sigma = noise_sigma(planned.policy, 0.05)
    seed = derive_seed(planned.config.master_seed, 4)
    # An untraced call first: the first draw in a process imports numpy.random.
    cost_error_statistics(v, sigma, 100, seed)
    tracemalloc.start()
    try:
        cost_error_statistics(v, sigma, 100_000, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_statistics_sample_floor():
    with pytest.raises(ValueError):
        cost_error_statistics(np.ones((20, 3)), 0.05, 99, seed=0)


def test_first_order_prediction_gap_superlinear(car_experiment):
    """The gap between true and first-order deviations shrinks faster than eps."""
    planned, _ = car_experiment
    policy = planned.policy
    eps_grid = np.array([0.01, 0.02, 0.04, 0.08])
    gaps = []
    for i, eps in enumerate(eps_grid):
        seeds = [derive_seed(777, i, j) for j in range(100)]
        sigma = noise_sigma(policy, eps)
        worst = []
        for states, seed in zip(seeded_states(policy, eps, CLOSED_LOOP, seeds), seeds):
            # The kernel draws run j's noise exactly like this.
            noises = sigma * np.random.default_rng(seed).standard_normal((policy.horizon, 3))
            true_dev = states - policy.nominal.states
            predicted, _ = linear_deviations(policy.closed_loop, policy.gains, noises)
            worst.append(np.linalg.norm(true_dev - predicted, axis=1).max())
        gaps.append(np.mean(worst))
    slope, _, _ = linear_fit(np.log(eps_grid), np.log(gaps))
    assert slope >= 1.5
