import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlqr.verify as verify
from conftest import LinearSystem, padded_batch_members, random_ltv_instance
from tlqr.dynamics import KinematicCar, NominalTrajectory
from tlqr.exceptions import NumericalFailure
from tlqr.lqr import (
    LqrWeights,
    TrackingPolicy,
    closed_loop_matrices,
    design_tracking_policy,
    feedback_rows,
    linearize_along,
    riccati_backward,
)
from tlqr.verify import _front_pad, simulated_quadratic_cost, value_identity_error

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
    a, b = linearize_along(CAR, traj)
    assert len(a) == len(b) == 5
    for t in range(1, 5):
        np.testing.assert_array_equal(a[t], a[0])
        np.testing.assert_array_equal(b[t], b[0])


def test_linearize_matches_dynamics_hand_values():
    u = np.array([0.6, 0.0])
    traj = CAR.rollout_nominal(X0, u[None, :])
    a, b = linearize_along(CAR, traj)
    np.testing.assert_allclose(a[0], [[1, 0, 0], [0, 1, 0.42], [0, 0, 1]], atol=1e-12)
    np.testing.assert_allclose(b[0], [[0.7, 0], [0, 0], [0, 0.84]], atol=1e-12)


def test_riccati_scalar_hand_fixture():
    ones = np.ones((2, 1, 1))
    gains, riccati = riccati_backward(ones, ones, LqrWeights([1.0], [1.0]))
    np.testing.assert_allclose(riccati.ravel(), [1.6, 1.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(gains.ravel(), [0.6, 0.5], atol=1e-12)


def test_riccati_no_actuation_reduces_to_open_loop():
    rng = np.random.default_rng(5)
    k, n = 6, 3
    a = rng.uniform(-1, 1, size=(k, n, n))
    gains, riccati = riccati_backward(a, np.zeros((k, n, 1)), LqrWeights(np.ones(n), [1.0]))
    assert np.all(gains == 0.0)
    expected = np.eye(n)
    for t in range(k - 1, -1, -1):  # oracle: P_t = Wx + A^T P_{t+1} A
        expected = np.eye(n) + a[t].T @ expected @ a[t]
        expected = 0.5 * (expected + expected.T)
    np.testing.assert_allclose(riccati[0], expected, atol=1e-10)


def test_riccati_zero_state_weight_gives_zero():
    k, n = 4, 2
    rng = np.random.default_rng(8)
    a, b = rng.uniform(-1, 1, (k, n, n)), rng.uniform(-1, 1, (k, n, 1))
    gains, riccati = riccati_backward(a, b, LqrWeights(np.zeros(n), [1.0]))
    assert np.all(gains == 0.0) and np.all(riccati == 0.0)


@pytest.mark.parametrize("n, m, k", [(1, 1, 2), (1, 2, 6), (2, 2, 2), (3, 1, 9), (4, 2, 20)])
def test_batched_riccati_and_closed_loop_match_per_instance_rows(n, m, k):
    rng = np.random.default_rng(n * 100 + m * 10 + k)
    a, b = rng.uniform(-1, 1, (5, k, n, n)), rng.uniform(-1, 1, (5, k, n, m))
    weights = LqrWeights(np.ones(n), np.ones(m))
    gains, riccati = riccati_backward(a, b, weights)
    d = closed_loop_matrices(a, b, gains)
    assert gains.shape == (5, k, m, n) and riccati.shape == (5, k + 1, n, n)
    for i in range(5):
        one_gains, one_riccati = riccati_backward(a[i], b[i], weights)
        np.testing.assert_array_equal(gains[i], one_gains)
        np.testing.assert_array_equal(riccati[i], one_riccati)
        np.testing.assert_array_equal(d[i], closed_loop_matrices(a[i], b[i], one_gains))
    with pytest.raises(ValueError, match="gains have shape"):
        closed_loop_matrices(a, b, gains[0])
    # A non-square A is rejected, not broadcast against B L.
    with pytest.raises(ValueError, match="A has shape"):
        closed_loop_matrices(a[..., :0], b, gains)


def test_ltv_system_batch_shapes_validated():
    weights = LqrWeights([1.0], [1.0])
    # Batch sizes differ.
    with pytest.raises(ValueError, match="aligned"):
        riccati_backward(np.zeros((2, 3, 1, 1)), np.zeros((3, 3, 1, 1)), weights)
    # A batch axis on A only.
    with pytest.raises(ValueError, match="aligned"):
        riccati_backward(np.zeros((2, 3, 1, 1)), np.zeros((3, 1, 1)), weights)
    # Two batch axes.
    with pytest.raises(ValueError, match="square"):
        riccati_backward(np.zeros((1, 2, 3, 1, 1)), np.zeros((1, 2, 3, 1, 1)), weights)
    # A non-square A: a (K, n, 1) stack would broadcast through the recursion.
    with pytest.raises(ValueError, match="square"):
        riccati_backward(np.ones((3, 2, 1)), np.ones((3, 2, 1)), LqrWeights([1.0, 1.0], [1.0]))


def test_value_identity_on_random_instances():
    assert value_identity_error(n_instances=100, seed=1002) <= 1e-8


def _per_instance_value_identity_error(n_instances, seed):
    """Reference: one unpadded Riccati sweep per instance, in draw order."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        a, b, weights = random_ltv_instance(rng)
        gains, riccati = riccati_backward(a, b, weights)
        x0 = rng.uniform(-1.0, 1.0, size=a.shape[-1])
        predicted = float(x0 @ riccati[0] @ x0)
        simulated = simulated_quadratic_cost(a, b, weights, gains, x0)
        worst = max(worst, abs(predicted - simulated) / max(abs(simulated), 1e-12))
    return worst


@pytest.mark.parametrize("seed", [1002, 5, 77])
def test_family_padded_value_identity_equals_per_instance_reference(seed):
    assert value_identity_error(100, seed) == _per_instance_value_identity_error(100, seed)


def _loop_quadratic_cost(a, b, weights, gains, x0):
    """Reference: the simulated cost one instance, one step and one vector at a time."""
    wx, wu = np.diag(weights.wx), np.diag(weights.wu)
    x = np.asarray(x0, dtype=float)
    total = 0.0
    for t in range(len(a)):
        u = -gains[t] @ x
        total += float(x @ wx @ x + u @ wu @ u)
        x = a[t] @ x + b[t] @ u
    return total + float(x @ wx @ x)


@pytest.mark.parametrize("seed", [1002, 5, 77])
def test_family_padded_value_identity_totals_equal_per_instance_loops(seed):
    # 600 instances: every family fills more than one batch at these seeds.
    batches = padded_batch_members(verify._riccati_shapes, 600, seed)
    for (a, b, x0), horizons, members in batches:
        # The batch's sweep and simulation, as value_identity_error runs them.
        gains, riccati = verify._identity_riccati(a, b)
        p0 = riccati[np.arange(len(x0)), horizons[-1] - np.asarray(horizons)]
        predicted = (x0[:, None, :] @ p0 @ x0[:, :, None])[:, 0, 0]
        weights = LqrWeights(np.ones(a.shape[-1]), np.ones(b.shape[-1]))
        simulated = simulated_quadratic_cost(a, b, weights, gains, x0, horizons)
        assert predicted.shape == simulated.shape == (len(members),)
        for i, (k, (a_i, b_i, x0_i)) in enumerate(zip(horizons, members)):
            one_gains, one_riccati = riccati_backward(a_i, b_i, weights)
            assert gains[i, horizons[-1] - k :].tobytes() == one_gains.tobytes()
            assert riccati[i, horizons[-1] - k :].tobytes() == one_riccati.tobytes()
            assert predicted[i].tobytes() == np.float64(x0_i @ one_riccati[0] @ x0_i).tobytes()
            loop = _loop_quadratic_cost(a_i, b_i, weights, one_gains, x0_i)
            assert simulated[i].tobytes() == np.float64(loop).tobytes()
            single = simulated_quadratic_cost(a_i, b_i, weights, one_gains, x0_i)
            assert np.float64(single).tobytes() == np.float64(loop).tobytes()
    # A padded batch's horizons must ascend, so that the running instances are the last ones.
    a, b, gains, x0 = (np.stack([x] * 2) for x in (a_i, b_i, one_gains, x0_i))
    with pytest.raises(ValueError, match="ascending"):
        simulated_quadratic_cost(a, b, weights, gains, x0, [len(a_i), 1])


def test_value_identity_riccati_calls_follow_the_padded_batch_rule(monkeypatch):
    calls = []
    original = verify.riccati_backward

    def counted(a, b, weights):
        # An instance of horizon k fills the last k steps of its row; every
        # real step of A has nonzero entries.
        k_b, n_x, n_u = b.shape[-3:]
        real = np.abs(a).sum(axis=(-2, -1)) > 0
        horizons = real.sum(axis=1)
        assert (real == (np.arange(k_b) >= k_b - horizons[:, None])).all()
        calls.append(((n_x, n_u), horizons.tolist(), k_b))
        return original(a, b, weights)

    monkeypatch.setattr(verify, "riccati_backward", counted)
    value_identity_error(n_instances=1000, seed=1002)
    # Each call is one batch: at most the batch size, ascending horizons,
    # padded to its longest; the families come in ascending order.
    for _, horizons, k_b in calls:
        assert 1 <= len(horizons) <= verify.PADDED_BATCH
        assert horizons == sorted(horizons) and horizons[-1] == k_b
    families = [family for family, *_ in calls]
    assert families == sorted(families)
    assert sum(len(horizons) for _, horizons, _ in calls) == 1000
    assert len(set(families)) < len(calls)  # some family fills more than one batch


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    horizons=st.lists(st.integers(1, 24), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1)
)
@example(horizons=[2, 20, 7, 2, 1, 20], seed=0)
@pytest.mark.parametrize("n, m", [(1, 1), (3, 2), (4, 1), (2, 4)])
def test_padded_riccati_rows_equal_unpadded_sweeps(n, m, horizons, seed):
    # Horizons in any order: each system is its own run of the padded stack.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-1, 1)
    a = [scale * rng.uniform(-1, 1, size=(k, n, n)) for k in horizons]
    b = [rng.uniform(-1, 1, size=(k, n, m)) for k in horizons]
    k_max = max(horizons)
    gains, riccati = verify._identity_riccati(
        _front_pad([a_i[None] for a_i in a], k_max), _front_pad([b_i[None] for b_i in b], k_max)
    )
    assert gains.shape == (len(horizons), k_max, m, n) and riccati.shape[1] == k_max + 1
    weights = LqrWeights(np.ones(n), np.ones(m))
    for i, k in enumerate(horizons):
        one_gains, one_riccati = riccati_backward(a[i], b[i], weights)
        assert gains[i, k_max - k :].tobytes() == one_gains.tobytes()
        assert riccati[i, k_max - k :].tobytes() == one_riccati.tobytes()


def test_gain_perturbation_never_beats_optimum():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b, weights = random_ltv_instance(rng, max_nx=3, max_k=10)
        gains, _ = riccati_backward(a, b, weights)
        x0 = rng.uniform(-1, 1, size=a.shape[-1])
        base = simulated_quadratic_cost(a, b, weights, gains, x0)
        t = int(rng.integers(0, len(a)))
        direction = rng.standard_normal(gains[t].shape)
        direction *= 1e-3 / np.linalg.norm(direction)
        perturbed = gains.copy()
        perturbed[t] = perturbed[t] + direction
        assert simulated_quadratic_cost(a, b, weights, perturbed, x0) >= base - 1e-12


def test_policy_invariants(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    k = policy.horizon
    assert policy.riccati.shape[0] == k + 1
    for p in policy.riccati:
        assert np.linalg.norm(p - p.T) <= 1e-10
        assert np.linalg.eigvalsh(p).min() >= -1e-10
    np.testing.assert_array_equal(policy.riccati[k], np.eye(3))
    a, b = linearize_along(policy.model, policy.nominal)
    for t in range(k):
        np.testing.assert_allclose(policy.closed_loop[t], a[t] - b[t] @ policy.gains[t], atol=1e-12)


def test_policy_rejects_model_of_other_dimensions(car_experiment):
    planned, _ = car_experiment
    with pytest.raises(ValueError, match="do not match the model"):
        dataclasses.replace(planned.policy, model=LinearSystem(a=np.eye(2), b=np.eye(2)))


@pytest.mark.parametrize(
    "field, message",
    [("gains", "one entry per"), ("closed_loop", "one entry per"), ("riccati", r"K\+1 entries")],
    ids=["gains", "closed_loop", "riccati"],
)
def test_policy_rejects_stacks_of_the_wrong_length(car_experiment, field, message):
    policy = car_experiment[0].policy
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(policy, **{field: getattr(policy, field)[1:]})


def feedback_column(policy, t, x):
    """The clamped law at step t on one state, as the (n, 1) rows of ``feedback_rows``."""
    return feedback_rows(policy, t, x[:, None], np.empty((policy.model.control_dim, 1)))[:, 0]


def test_feedback_on_nominal_returns_nominal_control(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    for t in (0, 7, policy.horizon - 1):
        np.testing.assert_array_equal(
            feedback_column(policy, t, policy.nominal.states[t]), policy.nominal.controls[t]
        )


def test_feedback_scalar_value_and_linearity():
    policy = scalar_policy(0.5)
    assert feedback_column(policy, 0, np.array([1.0]))[0] == pytest.approx(-0.5)
    u1 = feedback_column(policy, 0, np.array([0.3]))
    u2 = feedback_column(policy, 0, np.array([0.6]))
    np.testing.assert_allclose(u2, 2 * u1, atol=1e-15)


def test_feedback_batch_rows_equal_single_states(car_experiment):
    policy = car_experiment[0].policy
    rng = np.random.default_rng(8)
    for t in (0, 9, policy.horizon - 1):
        batch = policy.nominal.states[t] + rng.normal(scale=0.5, size=(40, 3))
        out = np.empty((2, 40))
        controls = feedback_rows(policy, t, batch.T, out)
        assert controls is out
        for x, u in zip(batch, controls.T):
            assert np.array_equal(feedback_column(policy, t, x), u)


def test_feedback_clamps_to_car_bounds(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    u = feedback_column(policy, 0, policy.nominal.states[0] + np.array([5.0, -5.0, 1.0]))
    assert abs(u[0]) <= planned.policy.model.v_max
    assert abs(u[1]) < planned.policy.model.phi_max


def test_closed_loop_error_contracts_after_startup(car_experiment):
    planned, _ = car_experiment
    policy, model = planned.policy, planned.policy.model
    direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    x = (policy.nominal.states[0] + 0.05 * direction)[:, None]
    u = np.empty((2, 1))
    errs = [0.05]
    for t in range(policy.horizon):
        x = model.step_rows(x, feedback_rows(policy, t, x, u), np.empty((3, 1)))
        errs.append(np.linalg.norm(x[:, 0] - policy.nominal.states[t + 1]))
    assert all(b <= a + 1e-12 for a, b in zip(errs[3:], errs[4:]))


def test_weights_validation():
    cases = [
        ([1.0, 1.0], [0.0], "wu entries must be > 0"),  # singular control weight
        ([1.0, 1.0], [-1.0], "wu entries must be > 0"),
        ([-1.0, 1.0], [1.0], "wx entries must be >= 0"),  # indefinite state weight
        ([1.0, np.nan], [1.0], "wx entries must be finite"),
        ([1.0, 1.0], [np.nan], "wu entries must be finite"),
        ([np.inf, 1.0], [1.0], "wx entries must be finite"),
        ([1.0, -np.inf], [1.0], "wx entries must be finite"),
        ([1.0, 1.0], [np.inf], "wu entries must be finite"),
        ([1.0, 1.0], [-np.inf], "wu entries must be finite"),
        ([], [1.0], "wx must be a non-empty vector"),
        ([1.0], [], "wu must be a non-empty vector"),
        (np.eye(2), [1.0], "wx must be a non-empty vector"),
        ([1.0, 1.0], [[1.0]], "wu must be a non-empty vector"),
        (1.0, [1.0], "wx must be a non-empty vector"),
    ]
    for wx, wu, message in cases:
        with pytest.raises(ValueError, match=message):
            LqrWeights(wx, wu)


@pytest.mark.parametrize("wx, wu", [(np.ones(3), np.ones(1)), (np.ones(2), np.ones(2))])
def test_riccati_rejects_weights_of_other_dimensions(wx, wu):
    with pytest.raises(ValueError, match="the LTV system's n=2 and m=1 entries"):
        riccati_backward(np.ones((4, 2, 2)), np.ones((4, 2, 1)), LqrWeights(wx, wu))


def test_riccati_terminal_weight_is_the_diagonal():
    # Bit for bit the symmetrized terminal weight 0.5 (W + W^T) of a weight
    # matrix W, for any weight whose double does not overflow.
    wx = np.array([3.0, 5e-324, 0.0, 8.9e307])
    _, riccati = riccati_backward(np.zeros((2, 4, 4)), np.zeros((2, 4, 1)), LqrWeights(wx, [1.0]))
    w = np.diag(wx)
    assert riccati[2].tobytes() == w.tobytes() == (0.5 * (w + w.T)).tobytes()


def test_riccati_overflow_names_the_first_step(car_experiment):
    policy = car_experiment[0].policy
    a, b = linearize_along(policy.model, policy.nominal)
    with pytest.raises(NumericalFailure, match="Riccati recursion is not finite at step 19"):
        riccati_backward(a, b, LqrWeights(np.full(3, 1e308), np.ones(2)))
    k = 7
    a = np.zeros((2, k, 1, 1))
    a[1, 3] = 1e200  # only row 1 overflows, at step 3: P_3 = 1 + 1e400
    with pytest.raises(NumericalFailure, match="not finite at step 3$"):
        riccati_backward(a, np.zeros((2, k, 1, 1)), LqrWeights([1.0], [1.0]))


def test_singular_gain_system_names_its_step(monkeypatch):
    # LqrWeights keeps every gain system positive definite, so only a solver
    # failure reaches this mapping; the sweep runs t = K-1 down, so the third
    # solve of a K = 5 system is step 2. The CLI prints a NumericalFailure as
    # one line and exits 2, where a bare LinAlgError would be a traceback.
    solve, calls = np.linalg.solve, []

    def failing_solve(*args):
        calls.append(None)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    with pytest.raises(NumericalFailure, match="^singular gain system at step 2$") as exc:
        riccati_backward(np.ones((5, 1, 1)), np.ones((5, 1, 1)), LqrWeights([1.0], [1.0]))
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
    assert len(calls) == 3


def test_design_policy_round_trip(car_experiment):
    planned, _ = car_experiment
    policy = planned.policy
    rebuilt = design_tracking_policy(
        policy.model, policy.nominal, LqrWeights(np.ones(3), np.ones(2))
    )
    np.testing.assert_array_equal(rebuilt.gains, planned.policy.gains)
    np.testing.assert_array_equal(rebuilt.riccati, planned.policy.riccati)
