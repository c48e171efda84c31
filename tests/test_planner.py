import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LinearSystem, make_pins
from tlqr import cli, error_analysis, planner
from tlqr.config import default_config
from tlqr.dynamics import KinematicCar
from tlqr.error_analysis import adjoint_sweep
from tlqr.exceptions import NumericalFailure
from tlqr.experiments import plan_experiment
from tlqr.planner import (
    PlannerReport,
    cost_gradient,
    goal_tracking_cost,
    nominal_cost,
    optimize_nominal,
)

CAR = KinematicCar()
X0 = np.array([-1.5, 0.5, 0.0])
X_GOAL = np.array([-0.5, 1.0, 0.0])


def raw_states(model, x0, controls):
    """Rollout one unchecked Euler step at a time, so out-of-bound controls are allowed."""
    states = np.empty((len(controls) + 1, model.state_dim))
    states[0] = x0
    for t, u in enumerate(np.asarray(controls, dtype=float)):
        model.step_rows(states[t][:, None], u[:, None], states[t + 1][:, None])
    return states


def cost_of(model, cost, x0, controls):
    return nominal_cost(cost, raw_states(model, x0, controls), controls)


def fd_gradient(model, cost, x0, controls, h=1e-5):
    grad = np.empty_like(controls)
    for t in range(controls.shape[0]):
        for i in range(controls.shape[1]):
            up = controls.copy()
            up[t, i] += h
            down = controls.copy()
            down[t, i] -= h
            grad[t, i] = (
                cost_of(model, cost, x0, up) - cost_of(model, cost, x0, down)
            ) / (2 * h)
    return grad


def test_cost_zero_at_goal_with_zero_controls():
    cost = goal_tracking_cost(CAR, X0, effort_weight=0.0, goal_weight=1.0, bound_weight=0.0)
    assert cost_of(CAR, cost, X0, np.zeros((20, 2))) == 0.0


def test_cost_hand_value_goal_penalty():
    cost = goal_tracking_cost(CAR, X_GOAL, effort_weight=0.0, goal_weight=1.0, bound_weight=0.0)
    assert cost_of(CAR, cost, X0, np.zeros((20, 2))) == pytest.approx(1.25, abs=1e-12)


def test_cost_linear_in_goal_weight():
    c1 = goal_tracking_cost(CAR, X_GOAL, effort_weight=0.0, goal_weight=1.0, bound_weight=0.0)
    c2 = goal_tracking_cost(CAR, X_GOAL, effort_weight=0.0, goal_weight=2.0, bound_weight=0.0)
    controls = np.tile([0.3, 0.1], (8, 1))
    assert cost_of(CAR, c2, X0, controls) == pytest.approx(
        2.0 * cost_of(CAR, c1, X0, controls), rel=1e-14
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    cost = goal_tracking_cost(CAR, X_GOAL)
    for case in range(20):
        k = int(rng.integers(2, 8))
        controls = np.column_stack(
            [rng.uniform(-0.45, 0.45, size=k), rng.uniform(-1.1, 1.1, size=k)]
        )
        if case % 5 == 0:  # exercise the bound-penalty branch
            controls[0] = [0.75, 1.7]
        x0 = rng.uniform(-1, 1, size=3)
        grad = cost_gradient(CAR, cost, raw_states(CAR, x0, controls), controls)
        fd = fd_gradient(CAR, cost, x0, controls)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_gradient_matches_central_differences_in_the_smooth_domain(k, seed):
    # Random goals, starts and controls with |phi| <= 1.2, well below pi/2.
    # Speeds reach past v_max, so the bound penalty enters, but stay 1e-3
    # off its kink, where central differences are not second-order accurate.
    rng = np.random.default_rng(seed)
    cost = goal_tracking_cost(CAR, rng.uniform(-2, 2, size=3))
    v = rng.uniform(-1.0, 1.0, size=k)
    near_kink = np.abs(np.abs(v) - CAR.v_max) < 1e-3
    v[near_kink] += 2e-3 * np.sign(v[near_kink])
    controls = np.column_stack([v, rng.uniform(-1.2, 1.2, size=k)])
    x0 = rng.uniform(-1, 1, size=3)
    grad = cost_gradient(CAR, cost, raw_states(CAR, x0, controls), controls)
    fd = fd_gradient(CAR, cost, x0, controls)
    assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


def linear_closed_form(model, x0, controls):
    """Oracle: x_t = A^t x0 + sum_{s < t} A^(t-1-s) B u_s, each power taken afresh."""
    powers = [np.linalg.matrix_power(model.a, t) for t in range(len(controls) + 1)]
    return np.array(
        [
            powers[t] @ x0 + sum((powers[t - 1 - s] @ model.b @ controls[s] for s in range(t)), 0.0)
            for t in range(len(controls) + 1)
        ]
    )


@pytest.mark.parametrize(
    "model, oracle, rtol",
    [
        (CAR, raw_states, 0.0),
        (LinearSystem(a=[[0.9, 0.2], [-0.1, 1.0]], b=[[0.0], [0.5]]), linear_closed_form, 1e-12),
    ],
    ids=["car-euler", "linear"],
)
def test_open_loop_states_equal_stepwise_loop(model, oracle, rtol):
    # The car bit for bit against the stepwise loop; the linear plant against
    # its closed form, which sums in another order, to rtol of its largest state.
    rng = np.random.default_rng(23)
    for k in (1, 2, 7, 40):
        x0 = rng.uniform(-3, 3, size=model.state_dim)
        controls = rng.uniform(-1.2, 1.2, size=(k, model.control_dim))
        (states, _), expected = model.open_loop_rollout(x0, controls), oracle(model, x0, controls)
        assert states.shape == expected.shape
        assert np.abs(states - expected).max() <= rtol * np.abs(expected).max()


@pytest.mark.parametrize("model", [CAR, LinearSystem(a=np.eye(2), b=np.eye(2))], ids=["car", "linear"])
def test_batched_stage_terms_equal_per_row_calls(model):
    rng = np.random.default_rng(29)
    cost = goal_tracking_cost(model, np.zeros(model.state_dim))
    controls = rng.uniform(-2.0, 2.0, size=(500, 2))  # about half the rows out of bounds
    values = cost.stage(controls)
    grads = cost.stage_grad(controls)
    assert values.shape == (500,) and grads.shape == (500, 2)
    for u, value, grad in zip(controls, values, grads):
        assert value == cost.stage(u)
        expected = cost.effort_weight * float(u @ u)
        if cost.bounds is not None:
            hinge = np.maximum(0.0, np.abs(u) - cost.bounds)
            expected += cost.bound_weight * float(hinge @ hinge)
        assert value == expected
        assert np.array_equal(grad, cost.stage_grad(u))


def untrimmed_stage(cost, u):
    """The stage cost with the bound penalty added whenever its weight is positive."""
    value = cost.effort_weight * planner._squared_norms(u)
    if cost.bound_weight > 0:
        hinge = np.maximum(0.0, np.abs(u) - cost.bounds)
        value = value + cost.bound_weight * planner._squared_norms(hinge)
    return value


def untrimmed_stage_grad(cost, u):
    """The stage gradient with the bound penalty's term added whenever its weight is positive."""
    grad = 2.0 * cost.effort_weight * u
    if cost.bound_weight > 0:
        hinge = np.maximum(0.0, np.abs(u) - cost.bounds)
        grad = grad + 2.0 * cost.bound_weight * hinge * np.sign(u)
    return grad


def control_entries(bound, inside):
    """Entries of one control component: signed zeros, NaN, the bound's edges and plain values."""
    edge = math.nextafter(bound, 0.0)
    special = [0.0, -0.0, edge, -edge, bound * (1 - 1e-12), -bound * (1 - 1e-12)]
    if inside:
        inner = st.floats(-bound, bound, exclude_min=True, exclude_max=True)
        return st.sampled_from(special) | inner
    special += [math.nan, bound, -bound, math.nextafter(bound, 4.0), -math.nextafter(bound, 4.0)]
    return st.sampled_from(special) | st.floats(-2.0 * bound, 2.0 * bound)


@st.composite
def stage_cases(draw):
    """(effort weight, bound weight, controls (K, 2)); in half the draws every control is inside."""
    inside = draw(st.booleans())
    rows = st.tuples(control_entries(CAR.v_max, inside), control_entries(CAR.phi_max, inside))
    controls = np.array(draw(st.lists(rows, min_size=1, max_size=8)), dtype=float)
    # Hypothesis favours the first entries, so a -0.0 effort weight often meets
    # a positive bound weight: there the skips must turn -0.0 terms into +0.0.
    effort = draw(st.sampled_from([-0.0, 0.0, 0.1]) | st.floats(0.0, 10.0))
    bound = draw(st.sampled_from([100.0, 0.0, -0.0]) | st.floats(0.0, 1e3))
    return effort, bound, controls


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=stage_cases(), seed=st.integers(0, 2**32 - 1))
# All inside the bounds with a -0.0 entry: the full gradient formula turns it into +0.0.
@example(case=(0.1, 100.0, np.array([[-0.0, 0.3], [0.2, -0.0]])), seed=0)
@example(case=(0.0, 100.0, np.array([[-0.0, -0.3], [0.0, 1.5]])), seed=1)
# One control below its negative bound and none above a positive one.
@example(case=(0.1, 100.0, np.array([[0.1, 0.2], [-0.7, -0.1]])), seed=2)
@example(case=(0.1, 100.0, np.array([[0.1, -math.nextafter(np.pi / 2, 4.0)]])), seed=3)
@example(case=(0.1, 100.0, np.array([[math.nan, 0.2], [0.1, -0.0]])), seed=4)
# A -0.0 effort weight: the full formulas add the +0.0 penalty, which makes the effort term +0.0.
@example(case=(-0.0, 100.0, np.array([[0.3, -0.2], [-0.0, 0.1]])), seed=5)
@example(case=(-0.0, -0.0, np.array([[0.3, -0.2], [2.0, 0.1]])), seed=6)
def test_trimmed_stage_terms_and_rollout_fed_gradient_equal_the_full_formulas(case, seed):
    """Skipping the zero bound penalty and reusing the rollout's terms keep every bit."""
    effort, bound, controls = case
    rng = np.random.default_rng(seed)
    cost = goal_tracking_cost(
        CAR, rng.uniform(-2, 2, size=3), effort_weight=effort, bound_weight=bound
    )
    with np.errstate(all="ignore"):
        for u in (controls, controls[0]):  # a horizon and one control
            value, expected = np.asarray(cost.stage(u)), np.asarray(untrimmed_stage(cost, u))
            assert value.tobytes() == expected.tobytes()
            assert cost.stage_grad(u).tobytes() == untrimmed_stage_grad(cost, u).tobytes()
        states, terms = CAR.open_loop_rollout(rng.uniform(-1, 1, size=3), controls)
        fed = cost_gradient(CAR, cost, states, controls, terms)
        assert fed.tobytes() == cost_gradient(CAR, cost, states, controls).tobytes()
        a, b = CAR.transition_jacobians(states[:-1], controls)
        lam = CAR.costates(cost.terminal_grad(states[-1]), a)
        full = untrimmed_stage_grad(cost, controls) + np.matmul(lam[1:, None, :], b)[:, 0, :]
        assert fed.tobytes() == full.tobytes()


def test_cost_weights_must_be_finite_and_nonnegative_and_store_negative_zero_as_positive():
    names = ("effort_weight", "goal_weight", "bound_weight")
    for name in names:
        for value in (math.nan, math.inf, -math.inf, -1.0, -5e-324):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                goal_tracking_cost(CAR, X_GOAL, **{name: value})
    cost = goal_tracking_cost(CAR, X_GOAL, **{name: -0.0 for name in names})
    assert [math.copysign(1.0, getattr(cost, name)) for name in names] == [1.0, 1.0, 1.0]


def test_gradient_effort_only_closed_form():
    cost = goal_tracking_cost(CAR, X_GOAL, effort_weight=0.25, goal_weight=0.0, bound_weight=0.0)
    controls = np.tile([0.2, -0.3], (6, 1))
    np.testing.assert_allclose(
        cost_gradient(CAR, cost, raw_states(CAR, X0, controls), controls),
        2 * 0.25 * controls,
        atol=1e-15,
    )


def test_optimum_at_start_returns_immediately():
    cost = goal_tracking_cost(CAR, X0, effort_weight=0.1, goal_weight=100.0)
    traj, report = optimize_nominal(CAR, cost, X0, horizon=10)
    assert report.converged
    assert report.iterations <= 1
    assert report.final_cost == 0.0
    assert np.all(traj.controls == 0.0)


def test_reference_instance_reaches_goal(car_experiment):
    planned, _seconds = car_experiment
    report = planned.report
    assert report.converged
    assert report.gradient_norm <= 1e-6
    assert report.terminal_position_error <= 0.05
    assert report.terminal_heading_error <= 0.1
    assert report.max_bound_violation <= 1e-3


@pytest.mark.parametrize("layout", ["c", "fortran", "swapped", "every_other"])
def test_adjoint_sweep_rows_equal_single_calls_in_any_layout(layout):
    """A batch row equals the call on its instance whatever the maps' memory layout."""
    rng = np.random.default_rng(41)
    n_batch, k, n = 3, 9, 4
    base = rng.uniform(-1, 1, size=(n_batch, 2 * k, n, n))
    maps = {
        "c": base[:, :k].copy(),
        "fortran": np.asfortranarray(base[:, :k]),
        "swapped": base[:, :k].swapaxes(-1, -2),
        "every_other": base[:, ::2],
    }[layout]
    forcing = rng.uniform(-1, 1, size=(n_batch, k, n))
    terminal = rng.uniform(-1, 1, size=(n_batch, n))
    batch = adjoint_sweep(terminal, forcing, maps)
    for i in range(n_batch):
        assert batch[i].tobytes() == adjoint_sweep(terminal[i], forcing[i], maps[i]).tobytes()


def test_reference_plan_makes_no_per_step_calls(monkeypatch):
    """Each gradient is one Jacobian call and one costates call, and no rollout steps the Euler car.

    The planner calls ``nominal_cost`` and ``cost_gradient`` through the
    module, so wrappers set on it, as by an outside tracer, see every
    evaluation.
    """
    counts = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("nominal_cost", "cost_gradient"):
        count(planner, name)
    count(error_analysis, "adjoint_sweep")
    for name in ("costates", "step_rows", "transition_jacobians"):
        count(KinematicCar, name)
    planned = plan_experiment(default_config())
    pin = make_pins.load()["goals"]["reference"]
    assert planned.report.iterations == pin["iterations"]
    assert counts["nominal_cost"] == pin["cost_evals"]
    assert counts["cost_gradient"] == pin["grad_evals"]
    # Gradients: the start, every accepted step and the returned best point.
    assert counts["cost_gradient"] == planned.report.iterations + 2
    # One more Jacobian call linearizes the final nominal for the gains.
    assert counts["transition_jacobians"] == counts["cost_gradient"] + 1
    # The car's costates replace the general sweep in every gradient.
    assert (counts["costates"], counts["adjoint_sweep"]) == (counts["cost_gradient"], 0)
    assert counts["step_rows"] == 0


def direction_with_recomputed_gamma(grad, pairs):
    """The two-loop direction with 1 / s'y and gamma = s'y / y'y recomputed from s and y."""
    q = grad.copy()
    alphas = []
    for s, y, *_ in reversed(pairs):
        a = (1.0 / s.dot(y)) * s.dot(q)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y = pairs[-1][:2]
        q *= s.dot(y) / y.dot(y)
    for (s, y, *_), a in zip(pairs, reversed(alphas)):
        beta = (1.0 / s.dot(y)) * y.dot(q)
        q += (a - beta) * s
    return -q


def test_directions_after_a_skipped_pair_and_a_reset_take_gamma_from_the_newest_kept_pair(
    monkeypatch,
):
    """Stored pair scalars give the directions of scalars recomputed from the kept pairs.

    The reference plan rejects two pairs by the curvature test early on; one
    ascent direction handed back later forces a steepest-descent reset.
    """
    original = planner._two_loop_direction
    calls = []
    flipped = 30

    def spy(grad, pairs):
        d = original(grad, pairs)
        calls.append((grad, list(pairs), d))
        return -d if len(calls) == flipped else d

    monkeypatch.setattr(planner, "_two_loop_direction", spy)
    plan_experiment(default_config())
    after_skip = [
        i
        for i in range(1, flipped)
        if calls[i][1] and calls[i - 1][1] and calls[i][1][-1] is calls[i - 1][1][-1]
    ]
    assert after_skip, "no pair failed the curvature test"
    # The reset emptied the memory, so the next call holds at most the one pair kept since.
    assert len(calls[flipped][1]) <= 1 < len(calls[flipped - 1][1])
    for i, (grad, pairs, d) in enumerate(calls):
        assert d.tobytes() == direction_with_recomputed_gamma(grad, pairs).tobytes(), i


def test_reference_plan_evaluates_each_trigonometric_term_once(monkeypatch):
    """tan, cos and sin calls of the reference plan, in closed form of its pinned evaluation counts.

    Each rollout (cost_evals - 1 trial points, then the returned nominal)
    takes tan(phi), cos(theta) and sin(theta) once; each gradient reuses its
    rollout's and takes only cos(phi), for the steering derivative; the
    linearization for the gains computes all four afresh.
    """
    counts = Counter()
    for name in ("tan", "cos", "sin"):
        ufunc = getattr(np, name)

        def counted(*args, _name=name, _ufunc=ufunc, **kwargs):
            counts[_name] += 1
            return _ufunc(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    plan_experiment(default_config())
    pin = make_pins.load()["goals"]["reference"]
    rollouts = pin["cost_evals"]
    assert counts == {
        "tan": rollouts + 1,
        "cos": rollouts + pin["grad_evals"] + 2,
        "sin": rollouts + 1,
    }


def test_cost_history_monotone(car_experiment):
    planned, _ = car_experiment
    hist = planned.report.cost_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_returned_trajectory_refeasible(car_experiment):
    planned, _ = car_experiment
    traj = planned.policy.nominal
    rerolled = planned.policy.model.rollout_nominal(traj.states[0], traj.controls)
    np.testing.assert_allclose(rerolled.states, traj.states, rtol=0, atol=1e-12)


def test_stored_cost_matches_recompute(car_experiment):
    planned, _ = car_experiment
    traj = planned.policy.nominal
    recomputed = nominal_cost(planned.cost, traj.states, traj.controls)
    assert planned.report.final_cost == pytest.approx(recomputed, rel=1e-10)


def test_wrap_angle_maps_onto_minus_pi_to_pi():
    # The terminal heading error is |_wrap_angle(theta_K - theta_goal)|.
    two_pi = 2.0 * np.pi
    cases = [
        (0.0, 0.0),
        (0.5, 0.5),
        (-3.0, -3.0),
        (np.pi - 0.25, np.pi - 0.25),
        (np.pi + 0.25, 0.25 - np.pi),
        (-np.pi - 0.25, np.pi - 0.25),
        (two_pi + 0.3, 0.3),
        (-two_pi - 0.3, -0.3),
        (3 * two_pi + 1.0, 1.0),
        (-5 * two_pi - 2.0, -2.0),
    ]
    for angle, expected in cases:
        wrapped = planner._wrap_angle(angle)
        assert -np.pi <= wrapped < np.pi
        assert wrapped == pytest.approx(expected, abs=1e-12)


def _linear_quadratic_optimum(model, x0, goal, r_u, r_g, k):
    """Least-squares solution of min r_u|u|^2 + r_g|x_K - goal|^2."""
    n, m = model.state_dim, model.control_dim
    a, b = model.a, model.b
    powers = [np.eye(n)]
    for _ in range(k):
        powers.append(a @ powers[-1])
    stacked = np.hstack([powers[k - 1 - t] @ b for t in range(k)])
    d = powers[k] @ x0 - goal
    lhs = r_u * np.eye(k * m) + r_g * stacked.T @ stacked
    return np.linalg.solve(lhs, -r_g * stacked.T @ d).reshape(k, m)


def test_linear_model_matches_least_squares_and_weight_scaling():
    model = LinearSystem(a=[[1.0, 0.1], [0.0, 1.0]], b=[[0.0], [1.0]])
    x0 = np.array([1.0, 0.0])
    goal = np.array([0.0, 0.0])
    k = 6
    expected = _linear_quadratic_optimum(model, x0, goal, r_u=0.5, r_g=10.0, k=k)
    cost = goal_tracking_cost(model, goal, effort_weight=0.5, goal_weight=10.0, bound_weight=0.0)
    traj, report = optimize_nominal(model, cost, x0, horizon=k, tolerance=1e-10)
    assert report.converged
    np.testing.assert_allclose(traj.controls, expected, atol=1e-6)

    lam = 7.3  # uniform weight scaling leaves the argmin unchanged
    scaled = goal_tracking_cost(
        model, goal, effort_weight=lam * 0.5, goal_weight=lam * 10.0, bound_weight=0.0
    )
    traj2, _ = optimize_nominal(model, scaled, x0, horizon=k, tolerance=1e-10)
    np.testing.assert_allclose(traj2.controls, traj.controls, atol=1e-6)


def test_non_convergence_returns_best_iterate():
    cost = goal_tracking_cost(CAR, X_GOAL)
    traj, report = optimize_nominal(CAR, cost, X0, horizon=20, max_iters=1)
    assert not report.converged
    assert report.iterations == 1
    assert len(report.cost_history) == 2
    assert report.final_cost <= report.cost_history[0]
    assert report.final_cost == nominal_cost(cost, traj.states, traj.controls)


def test_step_collapse_far_from_the_tolerance_is_not_convergence(monkeypatch, tmp_path, capsys):
    # A steering Jacobian entry divided once more by cos(phi) (1/cos^3) makes
    # the gradient disagree with the cost, and the line search collapses.
    original = KinematicCar.transition_jacobians

    def wrong_jacobians(self, x, u, terms=None):
        a, b = original(self, x, u, terms)
        b[..., 2, 1] /= np.cos(np.asarray(u)[..., 1])
        return a, b

    monkeypatch.setattr(KinematicCar, "transition_jacobians", wrong_jacobians)
    config = default_config()
    report = plan_experiment(config).report
    assert not report.converged
    assert report.iterations < config.planner.max_iters  # ended by the collapse
    assert report.gradient_norm > planner.COLLAPSE_GRADIENT_FACTOR * config.planner.tolerance
    assert cli.main(["plan", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: planner did not converge in ") and err.count("\n") == 1


def test_nan_cost_raises_numerical_failure():
    cost = goal_tracking_cost(CAR, [np.nan, 0.0, 0.0])
    with pytest.raises(NumericalFailure, match="cost is not finite"):
        optimize_nominal(CAR, cost, X0, horizon=4)


def test_horizon_validation():
    cost = goal_tracking_cost(CAR, X_GOAL)
    with pytest.raises(ValueError, match="horizon"):
        optimize_nominal(CAR, cost, X0, horizon=0)


def test_report_rejects_negative_iterations():
    fields = dict(
        final_cost=0.0,
        terminal_position_error=0.0,
        terminal_heading_error=0.0,
        gradient_norm=0.0,
        converged=True,
        cost_history=(0.0,),
        max_bound_violation=0.0,
    )
    assert PlannerReport(iterations=0, **fields).iterations == 0
    with pytest.raises(ValueError, match="nonnegative"):
        PlannerReport(iterations=-1, **fields)


@pytest.mark.parametrize(
    "n_states, controls_shape",
    [(5, (4,)), (1, (0, 2)), (4, (4, 2)), (6, (4, 2))],
    ids=["flat_controls", "no_controls", "short_states", "long_states"],
)
def test_rollout_shapes_checked(n_states, controls_shape):
    cost = goal_tracking_cost(CAR, X_GOAL)
    states, controls = np.zeros((n_states, 3)), np.zeros(controls_shape)
    with pytest.raises(ValueError, match="expected nonempty"):
        nominal_cost(cost, states, controls)
    with pytest.raises(ValueError, match="expected nonempty"):
        cost_gradient(CAR, cost, states, controls)


@pytest.mark.parametrize("x0", [[-1.5], [[-1.5, 0.5, 0.0]]], ids=["scalar", "row"])
def test_initial_state_checked_before_the_search(monkeypatch, x0):
    cost = goal_tracking_cost(CAR, X_GOAL)
    calls = []
    monkeypatch.setattr(planner, "nominal_cost", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"initial state has shape .*, expected \(3,\)"):
        optimize_nominal(CAR, cost, x0, horizon=20)
    assert calls == []
