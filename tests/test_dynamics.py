import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LinearSystem
from tlqr.dynamics import KinematicCar, NominalTrajectory
from tlqr.error_analysis import adjoint_sweep
from tlqr.exceptions import BoundViolation, DomainError
from tlqr.lqr import linearize_along

CAR = KinematicCar(wheelbase=0.5, step_period=0.7, v_max=0.6, phi_max=np.pi / 2)
X0 = np.array([-1.5, 0.5, 0.0])
EVERY_MODEL = pytest.mark.parametrize(
    "model",
    [
        CAR,
        LinearSystem(a=[[0.9, 0.2], [-0.1, 1.0]], b=[[0.0], [0.5]]),
    ],
    ids=["car-euler", "linear"],
)


def step(model, x, u):
    """One checked Euler step: the second state of a one-step rollout."""
    return model.rollout_nominal(x, np.asarray(u, dtype=float)[None]).states[1]


def per_pair_jacobians(model, x, u):
    """Reference for batched ``transition_jacobians``: one (state, control) pair at a time.

    The car's formulas work on float64 scalars and 2-d matrix products: the
    arithmetic the pinned reference numbers were computed with.
    """
    if isinstance(model, LinearSystem):
        return model.a.copy(), model.b.copy()
    wheelbase, dt = model.wheelbase, model.step_period
    v, phi = u
    ct, st = np.cos(x[2]), np.sin(x[2])
    jx = np.array([[0.0, 0.0, -v * st], [0.0, 0.0, v * ct], [0.0, 0.0, 0.0]])
    sec2 = 1.0 / np.cos(phi) ** 2
    ju = np.array([[ct, 0.0], [st, 0.0], [np.tan(phi) / wheelbase, v * sec2 / wheelbase]])
    return np.eye(3) + dt * jx, dt * ju


def pow_sensitive_angles(rng, draws=20_000):
    """Steering angles whose cos^2 differs between a float64 scalar's C pow() and an array's square."""
    phi = rng.uniform(-1.5, 1.5, size=draws)
    c = np.cos(phi)
    scalar = np.array([ci**2 for ci in c])  # np.float64 ** 2
    return phi[scalar != c**2]


def fd_jacobians(model, x, u, h=1e-5):
    """Central finite differences of the Euler step, one perturbed state or control per column."""
    n, m = model.state_dim, model.control_dim

    def steps(xs, us):
        return model.step_rows(xs, us, np.empty(xs.shape))

    xs, us = np.tile(x[:, None], (1, n)), np.tile(u[:, None], (1, n))
    a = (steps(xs + h * np.eye(n), us) - steps(xs - h * np.eye(n), us)) / (2 * h)
    xs, us = np.tile(x[:, None], (1, m)), np.tile(u[:, None], (1, m))
    b = (steps(xs, us + h * np.eye(m)) - steps(xs, us - h * np.eye(m))) / (2 * h)
    return a, b


def linearized_pair(model, x, u):
    """``linearize_along`` at one (state, control) pair, as a one-step nominal."""
    sys = linearize_along(model, NominalTrajectory(states=np.array([x, x]), controls=np.array([u])))
    return sys.a[0], sys.b[0]


def test_euler_step_straight():
    out = step(CAR, X0, np.array([0.6, 0.0]))
    np.testing.assert_allclose(out, [-1.08, 0.5, 0.0], atol=1e-12)


def test_euler_step_turning():
    out = step(CAR, X0, np.array([0.6, np.pi / 4]))
    np.testing.assert_allclose(out, [-1.08, 0.5, 0.84], atol=1e-12)


def test_step_deterministic():
    u = np.array([0.3, 0.2])
    assert np.array_equal(step(CAR, X0, u), step(CAR, X0, u))


def test_jacobian_state_hand_value():
    a, _ = linearized_pair(CAR, X0, np.array([0.6, 0.0]))
    np.testing.assert_allclose(a, [[1, 0, 0], [0, 1, 0.42], [0, 0, 1]], atol=1e-12)


def test_jacobian_control_hand_value():
    _, b = linearized_pair(CAR, X0, np.array([0.6, 0.0]))
    np.testing.assert_allclose(b, [[0.7, 0], [0, 0], [0, 0.84]], atol=1e-12)


@EVERY_MODEL
def test_jacobians_match_finite_differences(model):
    rng = np.random.default_rng(7)
    for _ in range(100):
        if isinstance(model, KinematicCar):
            x = rng.uniform(-2, 2, size=3)
            # interior points only: |phi| < phi_max - 0.01
            u = np.array([rng.uniform(-0.6, 0.6), rng.uniform(-1.4, 1.4)])
        else:
            x = rng.uniform(-2, 2, size=model.state_dim)
            u = rng.uniform(-1, 1, size=model.control_dim)
        a, b = model.transition_jacobians(x[None], u[None])
        a_fd, b_fd = fd_jacobians(model, x, u)
        assert np.linalg.norm(a[0] - a_fd) / np.linalg.norm(a[0]) <= 1e-6
        assert np.linalg.norm(b[0] - b_fd) <= 1e-6 * max(np.linalg.norm(b[0]), 1.0)


@EVERY_MODEL
def test_batched_jacobians_equal_per_pair_formulas(model):
    rng = np.random.default_rng(17)
    n = 200
    x = rng.uniform(-4, 4, size=(n, model.state_dim))
    u = rng.uniform(-1, 1, size=(n, model.control_dim))
    if isinstance(model, KinematicCar):
        tricky = pow_sensitive_angles(rng)
        assert len(tricky) >= 5
        near_singular = np.pi / 2 - rng.uniform(0.0, 1e-3, size=20)
        phi = np.concatenate([tricky, -tricky, near_singular, -near_singular])
        u[: len(phi), 1] = phi
        u[:, 0] *= model.v_max
    a, b = model.transition_jacobians(x, u)
    assert a.shape == (n, model.state_dim, model.state_dim)
    assert b.shape == (n, model.state_dim, model.control_dim)
    for i in range(n):
        a_ref, b_ref = per_pair_jacobians(model, x[i], u[i])
        assert np.array_equal(a[i], a_ref) and np.array_equal(b[i], b_ref)
        a_one, b_one = model.transition_jacobians(x[i : i + 1], u[i : i + 1])
        assert np.array_equal(a_one[0], a_ref) and np.array_equal(b_one[0], b_ref)
    # The checked entry: the same Jacobians along a nominal through the pairs.
    checked = linearize_along(model, NominalTrajectory(states=np.vstack([x, x[:1]]), controls=u))
    assert np.array_equal(checked.a, a) and np.array_equal(checked.b, b)


def test_zero_step_period_degenerate():
    frozen = KinematicCar(wheelbase=0.5, step_period=0.0)
    u = np.array([0.3, 0.4])
    a, b = linearized_pair(frozen, X0, u)
    np.testing.assert_array_equal(a, np.eye(3))
    np.testing.assert_array_equal(b, np.zeros((3, 2)))
    np.testing.assert_array_equal(step(frozen, X0, u), X0)


def test_rollout_zero_controls_constant():
    traj = CAR.rollout_nominal(X0, np.zeros((20, 2)))
    assert traj.horizon == 20
    assert np.all(traj.states == X0)


def test_rollout_two_steps_hand_value():
    traj = CAR.rollout_nominal(X0, np.tile([0.6, 0.0], (2, 1)))
    expected = [[-1.5, 0.5, 0], [-1.08, 0.5, 0], [-0.66, 0.5, 0]]
    np.testing.assert_allclose(traj.states, expected, atol=1e-12)


def test_rollout_lengths():
    traj = CAR.rollout_nominal(X0, np.zeros((7, 2)))
    assert len(traj.states) == 8 and len(traj.controls) == 7


def test_rollout_empty_controls_rejected():
    with pytest.raises(ValueError):
        CAR.rollout_nominal(X0, np.zeros((0, 2)))


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        step(CAR, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        step(CAR, X0, np.zeros(3))
    with pytest.raises(ValueError, match="do not match the model"):
        linearized_pair(CAR, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="do not match the model"):
        linearized_pair(CAR, X0, np.zeros(3))
    # Nominals of mismatched lengths or ranks never reach linearize_along:
    # the trajectory itself rejects them.
    with pytest.raises(ValueError):
        NominalTrajectory(states=np.zeros((4, 3)), controls=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        NominalTrajectory(states=np.zeros((4, 3)), controls=np.zeros(2))


def test_speed_bound_violation_names_component():
    with pytest.raises(BoundViolation) as exc:
        step(CAR, X0, np.array([0.61, 0.0]))
    assert exc.value.component == "v"


def test_steering_bound_violation_names_component():
    with pytest.raises(BoundViolation) as exc:
        step(CAR, X0, np.array([0.1, np.pi / 2]))
    assert exc.value.component == "phi"
    # A sequence reports its first offending row.
    with pytest.raises(BoundViolation) as exc:
        CAR.rollout_nominal(X0, [[0.1, 0.0], [0.1, -2.0], [0.9, 0.0]])
    assert (exc.value.component, exc.value.value) == ("phi", -2.0)


def test_jacobian_domain_error_at_singularity():
    with pytest.raises(DomainError):
        linearized_pair(CAR, X0, np.array([0.1, CAR.phi_max]))
    u = np.tile([0.1, 0.2], (5, 1))
    u[3, 1] = -CAR.phi_max
    nominal = NominalTrajectory(states=np.tile(X0, (6, 1)), controls=u)
    with pytest.raises(DomainError, match="phi = -1.5708"):
        linearize_along(CAR, nominal)


def test_clamp_rows():
    clamped = CAR.clamp_rows(np.array([[5.0], [3.0]]))[:, 0]
    assert clamped[0] == CAR.v_max
    assert abs(clamped[1]) < CAR.phi_max
    inside = np.array([[0.2], [-0.3]])
    np.testing.assert_array_equal(CAR.clamp_rows(inside.copy()), inside)
    batch = np.array([[5.0, 3.0], [0.2, -0.3], [-0.9, -2.0]])
    clamped = CAR.clamp_rows(batch.T.copy())
    assert clamped.shape == batch.T.shape
    for i in range(len(batch)):
        assert np.array_equal(clamped[:, i], CAR.clamp_rows(batch[i][:, None].copy())[:, 0])


@EVERY_MODEL
def test_transition_batch_rows_equal_single_calls(model):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((7, model.state_dim))
    u = 0.4 * rng.standard_normal((7, model.control_dim))
    out = np.empty((model.state_dim, 7))
    batch = model.step_rows(x.T, u.T, out)
    assert batch is out
    for i in range(7):
        one = model.step_rows(x[i][:, None], u[i][:, None], np.empty((model.state_dim, 1)))
        assert np.array_equal(batch[:, i], one[:, 0])


def _parent_transition(car, x, u):
    """The Euler step as a stacked drift per state: the arithmetic of the pinned numbers."""
    v, phi = u.T
    theta = x.T[2]
    drift = np.array([v * np.cos(theta), v * np.sin(theta), v / car.wheelbase * np.tan(phi)]).T
    return x + car.step_period * drift


def _parent_clamp(car, u):
    v, phi = u.T
    phi_lim = np.nextafter(car.phi_max, 0.0)
    return np.array([np.clip(v, -car.v_max, car.v_max), np.clip(phi, -phi_lim, phi_lim)]).T


def _row_form_inputs():
    """States and controls inside and beyond the bounds, up to the singular steering limit."""
    rng = np.random.default_rng(17)
    x = rng.uniform(-4.0, 4.0, (41, 3))
    u = rng.uniform(-1.0, 1.0, (41, 2)) * [1.2, 1.8]
    half_pi = np.pi / 2
    u[:6, 1] = [half_pi, -half_pi, np.nextafter(half_pi, 0.0), 2.0, -0.0, 0.0]
    u[6:9, 0] = [0.6, -0.6, -0.0]
    return x, u


# A wheelbase and step period that are not powers of two, so that every
# change in the order of the drift's operations shows in some entry.
ROW_FORM_CARS = pytest.mark.parametrize(
    "car", [CAR, KinematicCar(wheelbase=0.37, step_period=0.3, v_max=0.8, phi_max=1.2)]
)


@ROW_FORM_CARS
def test_step_rows_equal_the_stacked_drift_in_every_layout(car):
    x, u = _row_form_inputs()
    expected = _parent_transition(car, x, u)
    for i in range(len(x)):
        one = car.step_rows(x[i][:, None], u[i][:, None], np.empty((3, 1)))
        assert one.tobytes() == expected[i].tobytes()
    for rows, u_rows in ((np.ascontiguousarray(x.T), np.ascontiguousarray(u.T)), (x.T, u.T)):
        out = np.full(rows.shape, np.nan)
        assert car.step_rows(rows, u_rows, out) is out
        assert out.T.tobytes() == expected.tobytes()
    # One control column for every state.
    one = car.step_rows(x.T, u[0][:, None], np.empty((3, len(x))))
    assert one.T.tobytes() == _parent_transition(car, x, np.tile(u[0], (len(x), 1))).tobytes()


@ROW_FORM_CARS
def test_clamp_rows_equal_the_parent_clamp_in_every_layout(car):
    _, u = _row_form_inputs()
    u[9] = [np.nan, np.inf]
    expected = _parent_clamp(car, u)
    for i in range(len(u)):
        assert car.clamp_rows(u[i][:, None].copy()).tobytes() == expected[i].tobytes()
    for rows in (np.ascontiguousarray(u.T), u.copy().T):
        assert car.clamp_rows(rows) is rows  # in place
        assert rows.T.tobytes() == expected.tobytes()


# Terminal entries: signed zeros, the extremes of the normal range and ordinary values.
TERMINAL_ENTRIES = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]) | st.floats(-10, 10)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    car=st.sampled_from([CAR, KinematicCar(wheelbase=0.37, step_period=0.3, phi_max=1.2)]),
    k=st.integers(1, 40),
    terminal=st.lists(TERMINAL_ENTRIES, min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_costates_equal_the_unforced_adjoint_sweep(car, k, terminal, seed):
    """The car's costates are the general sweep on its Jacobians, bit for bit.

    About a quarter of the headings are 0, -0.0 or pi/2, of the speeds
    +-0.0, and of the steering angles within 1e-6 of +-phi_max.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, (k, 3))
    u = rng.uniform(-1.0, 1.0, (k, 2)) * [car.v_max, car.phi_max]
    special = rng.random((k, 3)) < 0.25
    x[:, 2] = np.where(special[:, 0], rng.choice([0.0, -0.0, np.pi / 2], k), x[:, 2])
    u[:, 0] = np.where(special[:, 1], rng.choice([0.0, -0.0], k), u[:, 0])
    near_bound = rng.choice([np.nextafter(car.phi_max, 0.0), car.phi_max - 1e-6], k)
    u[:, 1] = np.where(special[:, 2], rng.choice([-1.0, 1.0], k) * near_bound, u[:, 1])
    a, _ = car.transition_jacobians(x, u)
    terminal = np.array(terminal)
    expected = adjoint_sweep(terminal, None, a)
    assert np.isfinite(expected).all()
    assert car.costates(terminal, a).tobytes() == expected.tobytes()


def test_invalid_model_parameters():
    bad = [("wheelbase", 0.0), ("phi_max", 0.0), ("phi_max", 2.0), ("phi_max", np.nan)]
    bad += [(name, x) for name in ("wheelbase", "step_period", "v_max") for x in (np.nan, np.inf)]
    for name, value in bad:
        with pytest.raises(ValueError):
            KinematicCar(**{name: value})
