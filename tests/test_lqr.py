import dataclasses

import numpy as np
import pytest

from tlqr import (
    KinematicCar,
    LinearSystem,
    LqrWeights,
    LtvSystem,
    NominalTrajectory,
    TrackingPolicy,
    closed_loop_matrices,
    design_tracking_policy,
    feedback_control,
    linearize_along,
    riccati_backward,
)
import tlqr.verify as verify
from tlqr.verify import (
    _padded_riccati,
    random_ltv_instance,
    simulated_quadratic_cost,
    value_identity_error,
)

CAR = KinematicCar()
X0 = np.array([-1.5, 0.5, 0.0])


def scalar_policy(gain: float) -> TrackingPolicy:
    """Unbounded scalar system with a single constant feedback gain."""
    model = LinearSystem(a=[[1.0]], b=[[1.0]])
    nominal = NominalTrajectory(states=np.zeros((2, 1)), controls=np.zeros((1, 1)))
    return TrackingPolicy(
        nominal=nominal,
        gains=np.array([[[gain]]]),
        riccati=np.zeros((2, 1, 1)),
        closed_loop=np.array([[[1.0 - gain]]]),
        model=model,
    )


def test_linearize_constant_nominal():
    traj = CAR.rollout_nominal(X0, np.zeros((5, 2)))
    sys = linearize_along(CAR, traj)
    assert sys.horizon == 5
    for t in range(1, 5):
        np.testing.assert_array_equal(sys.a[t], sys.a[0])
        np.testing.assert_array_equal(sys.b[t], sys.b[0])


def test_linearize_matches_dynamics_hand_values():
    u = np.array([0.6, 0.0])
    traj = CAR.rollout_nominal(X0, u[None, :])
    sys = linearize_along(CAR, traj)
    np.testing.assert_allclose(sys.a[0], [[1, 0, 0], [0, 1, 0.42], [0, 0, 1]], atol=1e-12)
    np.testing.assert_allclose(sys.b[0], [[0.7, 0], [0, 0], [0, 0.84]], atol=1e-12)


def test_riccati_scalar_hand_fixture():
    sys = LtvSystem(a=np.ones((2, 1, 1)), b=np.ones((2, 1, 1)))
    gains, riccati = riccati_backward(sys, LqrWeights.constant([1.0], [1.0], 2))
    np.testing.assert_allclose(riccati.ravel(), [1.6, 1.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(gains.ravel(), [0.6, 0.5], atol=1e-12)


def test_riccati_no_actuation_reduces_to_open_loop():
    rng = np.random.default_rng(5)
    k, n = 6, 3
    a = rng.uniform(-1, 1, size=(k, n, n))
    sys = LtvSystem(a=a, b=np.zeros((k, n, 1)))
    gains, riccati = riccati_backward(sys, LqrWeights.constant(np.ones(n), [1.0], k))
    assert np.all(gains == 0.0)
    expected = np.eye(n)
    for t in range(k - 1, -1, -1):  # oracle: P_t = Wx + A^T P_{t+1} A
        expected = np.eye(n) + a[t].T @ expected @ a[t]
        expected = 0.5 * (expected + expected.T)
    np.testing.assert_allclose(riccati[0], expected, atol=1e-10)


def test_riccati_zero_state_weight_gives_zero():
    k, n = 4, 2
    rng = np.random.default_rng(8)
    sys = LtvSystem(a=rng.uniform(-1, 1, (k, n, n)), b=rng.uniform(-1, 1, (k, n, 1)))
    weights = LqrWeights(wx=np.zeros((k + 1, n, n)), wu=np.tile(np.eye(1), (k, 1, 1)))
    gains, riccati = riccati_backward(sys, weights)
    assert np.all(gains == 0.0) and np.all(riccati == 0.0)


@pytest.mark.parametrize("n, m, k", [(1, 1, 2), (1, 2, 6), (2, 2, 2), (3, 1, 9), (4, 2, 20)])
def test_batched_riccati_and_closed_loop_match_per_instance_rows(n, m, k):
    rng = np.random.default_rng(n * 100 + m * 10 + k)
    sys = LtvSystem(a=rng.uniform(-1, 1, (5, k, n, n)), b=rng.uniform(-1, 1, (5, k, n, m)))
    assert (sys.horizon, sys.state_dim, sys.control_dim) == (k, n, m)
    weights = LqrWeights.constant(np.ones(n), np.ones(m), k)
    gains, riccati = riccati_backward(sys, weights)
    d = closed_loop_matrices(sys, gains)
    assert gains.shape == (5, k, m, n) and riccati.shape == (5, k + 1, n, n)
    for i in range(5):
        one = LtvSystem(a=sys.a[i], b=sys.b[i])
        one_gains, one_riccati = riccati_backward(one, weights)
        np.testing.assert_array_equal(gains[i], one_gains)
        np.testing.assert_array_equal(riccati[i], one_riccati)
        np.testing.assert_array_equal(d[i], closed_loop_matrices(one, one_gains))
    with pytest.raises(ValueError):
        closed_loop_matrices(sys, gains[0])


def test_ltv_system_batch_shapes_validated():
    with pytest.raises(ValueError):
        LtvSystem(a=np.zeros((2, 3, 1, 1)), b=np.zeros((3, 3, 1, 1)))  # batch sizes differ
    with pytest.raises(ValueError):
        LtvSystem(a=np.zeros((2, 3, 1, 1)), b=np.zeros((3, 1, 1)))  # batch axis on A only
    with pytest.raises(ValueError):
        LtvSystem(a=np.zeros((1, 2, 3, 1, 1)), b=np.zeros((1, 2, 3, 1, 1)))  # two batch axes


def test_value_identity_on_random_instances():
    assert value_identity_error(n_instances=100, seed=1002) <= 1e-8


def _per_instance_value_identity_error(n_instances, seed):
    """Reference: one unpadded Riccati sweep per instance, in draw order."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        sys, weights = random_ltv_instance(rng)
        gains, riccati = riccati_backward(sys, weights)
        x0 = rng.uniform(-1.0, 1.0, size=sys.state_dim)
        predicted = float(x0 @ riccati[0] @ x0)
        simulated = simulated_quadratic_cost(sys, weights, gains, x0)
        worst = max(worst, abs(predicted - simulated) / max(abs(simulated), 1e-12))
    return worst


@pytest.mark.parametrize("seed", [1002, 5, 77])
def test_family_padded_value_identity_equals_per_instance_reference(seed):
    assert value_identity_error(100, seed) == _per_instance_value_identity_error(100, seed)


def test_value_identity_makes_one_riccati_call_per_family(monkeypatch):
    families, sizes = [], []
    original = verify.riccati_backward

    def counted(sys, weights):
        families.append((sys.state_dim, sys.control_dim))
        sizes.append(sys.a.shape[0])
        return original(sys, weights)

    monkeypatch.setattr(verify, "riccati_backward", counted)
    value_identity_error(n_instances=100, seed=1002)
    assert len(set(families)) == len(families) <= 8
    assert sum(sizes) == 100


@pytest.mark.parametrize("n, m", [(1, 1), (3, 2)])
def test_padded_riccati_rows_equal_unpadded_sweeps(n, m):
    rng = np.random.default_rng(10 * n + m)
    horizons = [2, 20, 7, 2, 1, 20]
    a = [rng.uniform(-1, 1, size=(k, n, n)) for k in horizons]
    b = [rng.uniform(-1, 1, size=(k, n, m)) for k in horizons]
    gains, riccati = _padded_riccati(a, b)
    assert gains.shape == (len(horizons), 20, m, n) and riccati.shape[1] == 21
    for i, k in enumerate(horizons):
        weights = LqrWeights.constant(np.ones(n), np.ones(m), k)
        one_gains, one_riccati = riccati_backward(LtvSystem(a=a[i], b=b[i]), weights)
        np.testing.assert_array_equal(gains[i, 20 - k :], one_gains)
        np.testing.assert_array_equal(riccati[i, 20 - k :], one_riccati)


def test_gain_perturbation_never_beats_optimum():
    rng = np.random.default_rng(17)
    for _ in range(20):
        sys, weights = random_ltv_instance(rng, max_nx=3, max_k=10)
        gains, _ = riccati_backward(sys, weights)
        x0 = rng.uniform(-1, 1, size=sys.state_dim)
        base = simulated_quadratic_cost(sys, weights, gains, x0)
        t = int(rng.integers(0, sys.horizon))
        direction = rng.standard_normal(gains[t].shape)
        direction *= 1e-3 / np.linalg.norm(direction)
        perturbed = gains.copy()
        perturbed[t] = perturbed[t] + direction
        assert simulated_quadratic_cost(sys, weights, perturbed, x0) >= base - 1e-12


def test_policy_invariants(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    k = policy.horizon
    assert policy.riccati.shape[0] == k + 1
    for p in policy.riccati:
        assert np.linalg.norm(p - p.T) <= 1e-10
        assert np.linalg.eigvalsh(p).min() >= -1e-10
    np.testing.assert_array_equal(policy.riccati[k], np.eye(3))
    sys = linearize_along(policy.model, policy.nominal)
    for t in range(k):
        np.testing.assert_allclose(
            policy.closed_loop[t], sys.a[t] - sys.b[t] @ policy.gains[t], atol=1e-12
        )


def test_policy_rejects_model_of_other_dimensions(car_experiment):
    planned, _ = car_experiment
    with pytest.raises(ValueError, match="do not match the model"):
        dataclasses.replace(planned.policy, model=LinearSystem(a=np.eye(2), b=np.eye(2)))


def test_feedback_on_nominal_returns_nominal_control(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    for t in (0, 7, policy.horizon - 1):
        np.testing.assert_array_equal(
            feedback_control(policy, t, policy.nominal.states[t]), policy.nominal.controls[t]
        )


def test_feedback_scalar_value_and_linearity():
    policy = scalar_policy(0.5)
    assert feedback_control(policy, 0, np.array([1.0]))[0] == pytest.approx(-0.5)
    u1 = feedback_control(policy, 0, np.array([0.3]))
    u2 = feedback_control(policy, 0, np.array([0.6]))
    np.testing.assert_allclose(u2, 2 * u1, atol=1e-15)


def test_feedback_time_index_validated():
    policy = scalar_policy(0.5)
    with pytest.raises(ValueError):
        feedback_control(policy, 1, np.array([0.0]))
    with pytest.raises(ValueError):
        feedback_control(policy, -1, np.array([0.0]))


def test_feedback_batch_rows_equal_single_states(car_experiment):
    policy = car_experiment[0].policy
    rng = np.random.default_rng(8)
    for t in (0, 9, policy.horizon - 1):
        batch = policy.nominal.states[t] + rng.normal(scale=0.5, size=(40, 3))
        controls = feedback_control(policy, t, batch)
        assert controls.shape == (40, 2)
        for x, u in zip(batch, controls):
            assert np.array_equal(feedback_control(policy, t, x), u)


def test_feedback_state_shape_validated(car_experiment):
    policy = car_experiment[0].policy
    for bad in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3)), np.float64(0.0)):
        with pytest.raises(ValueError, match="state has shape"):
            feedback_control(policy, 0, bad)


def test_feedback_clamps_to_car_bounds(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    u = feedback_control(policy, 0, policy.nominal.states[0] + np.array([5.0, -5.0, 1.0]))
    assert abs(u[0]) <= planned.policy.model.v_max
    assert abs(u[1]) < planned.policy.model.phi_max


def test_closed_loop_error_contracts_after_startup(car_experiment):
    planned, _ = car_experiment
    policy, model = planned.policy, planned.policy.model
    direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    x = policy.nominal.states[0] + 0.05 * direction
    errs = [0.05]
    for t in range(policy.horizon):
        x = model.transition(x, feedback_control(policy, t, x))
        errs.append(np.linalg.norm(x - policy.nominal.states[t + 1]))
    assert all(b <= a + 1e-12 for a, b in zip(errs[3:], errs[4:]))


def test_weights_validation():
    with pytest.raises(ValueError):
        LqrWeights.constant([1.0, 1.0], [0.0], 3)  # singular control weight
    with pytest.raises(ValueError):
        LqrWeights.constant([-1.0, 1.0], [1.0], 3)  # indefinite state weight
    with pytest.raises(ValueError):
        LqrWeights(wx=np.zeros((3, 2, 2)), wu=np.zeros((3, 1, 1)))  # length mismatch


def test_design_policy_round_trip(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    rebuilt = design_tracking_policy(
        policy.model, policy.nominal, LqrWeights.constant(np.ones(3), np.ones(2), 20)
    )
    np.testing.assert_array_equal(rebuilt.gains, planned.policy.gains)
    np.testing.assert_array_equal(rebuilt.riccati, planned.policy.riccati)
