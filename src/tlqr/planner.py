"""Open-loop trajectory optimization by direct single shooting.

The decision variables are the stacked controls u_0..u_{K-1}; the objective
is the deterministic rollout cost of one :class:`GoalCost`

    J(u) = sum_t c(u_t) + c_K(x_K),   x_{t+1} = f(x_t, u_t),

where the stage term c holds the control effort and a smooth penalty on the
control bounds, and the terminal term c_K the goal attraction. Each trial
point is rolled out once; the accepted point's states feed its gradient,
through the plant's backward costates over the rollout Jacobians (the car's
``KinematicCar.costates``, bit for bit the general
``error_analysis.adjoint_sweep``). The search direction comes from a
limited-memory quasi-Newton update with a backtracking Armijo line search.

An iteration computes each term once, to the bits of computing it again:
the gradient's Jacobians take the trigonometric terms of the rollout that
produced its states (``open_loop_rollout``), the stage terms skip a bound
penalty that is zero (see :class:`GoalCost`), and each curvature pair keeps
the scalars of its one s'y and y'y, which the direction used to recompute
from the same dot products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import Array, KinematicCar, NominalTrajectory
from .exceptions import NumericalFailure

ARMIJO_C1 = 1e-4
CURVATURE_SKIP = 1e-10
# Line-search steps below this count as collapsed.
STEP_FLOOR = 1e-12
# A collapse counts as converged only with the gradient norm within this
# multiple of the tolerance. Near a minimum the cost's round-off can defeat the
# Armijo test; far from one, a collapse means the gradient is not the slope of
# the evaluated cost (a wrong Jacobian), which is no convergence.
COLLAPSE_GRADIENT_FACTOR = 10.0
# Curvature pairs kept by the limited-memory update.
MEMORY = 10
# Terminal weight on the heading (third) state component; the others weigh 1.
HEADING_WEIGHT = 0.5


def _squared_norms(u: Array) -> float | Array:
    """|u|^2 of a vector (m,), or of each row of a matrix (K, m).

    A batched matrix product rounds each row as ``u @ u`` does; an
    elementwise square and sum rounds differently on about one row in six.
    """
    return np.matmul(u[..., None, :], u[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class GoalCost:
    """Quadratic effort + hinge bound penalty per stage, quadratic goal penalty at the end.

    ``stage(u)`` is effort_weight |u|^2 + bound_weight sum_i max(0, |u_i| - b_i)^2
    against the symmetric control bounds b, a C^1 function of u.
    ``terminal(x)`` is goal_weight (x - goal)' diag(w) (x - goal)
    with w = ``terminal_weights``. The planner reports its terminal errors
    against ``goal``.

    The stage terms add the bound penalty only when some |u_i| is not below
    its bound; in the reference plan 557 of 571 cost evaluations skip it.
    For finite weights that are +0.0 or positive, as ``goal_tracking_cost``
    stores them (a -0.0 weight as +0.0), each skip returns the bits of the
    full formula (the tests compare them).
    """

    goal: Array
    effort_weight: float
    goal_weight: float
    bound_weight: float
    bounds: Array
    terminal_weights: Array

    def stage(self, u: Array) -> float | Array:
        """Stage cost of one control (m,), or the (K,) row costs of a batch (K, m).

        The bound penalty is added only when some |u_i| is not below its
        bound. Otherwise every hinge is +0.0 and the penalty is +0.0, which
        adds nothing to the nonnegative effort term.
        """
        value = self.effort_weight * _squared_norms(u)
        if self.bound_weight > 0 and not (np.abs(u) < self.bounds).all():
            hinge = np.maximum(0.0, np.abs(u) - self.bounds)
            value = value + self.bound_weight * _squared_norms(hinge)
        return value

    def stage_grad(self, u: Array) -> Array:
        """Gradient (m,) of the stage cost at one control, or (K, m) at each row of a batch.

        With every |u_i| below its bound, the penalty's gradient is
        hinge * sign(u) = 0.0 * sign(u): -0.0 where u_i < 0, which adds
        nothing, and +0.0 elsewhere, which turns an effort entry of -0.0
        into +0.0. Those entries are the ones where u_i is -0.0
        (``np.sign(-0.0)`` is +0.0), so the effort term of u + 0.0, which
        flips just those zeros, gives the same bits.
        """
        if self.bound_weight > 0:
            if (np.abs(u) < self.bounds).all():
                return 2.0 * self.effort_weight * (u + 0.0)
            hinge = np.maximum(0.0, np.abs(u) - self.bounds)
            return 2.0 * self.effort_weight * u + 2.0 * self.bound_weight * hinge * np.sign(u)
        return 2.0 * self.effort_weight * u

    def terminal(self, x: Array) -> float:
        d = x - self.goal
        return self.goal_weight * float(d.dot(self.terminal_weights * d))

    def terminal_grad(self, x: Array) -> Array:
        return 2.0 * self.goal_weight * self.terminal_weights * (x - self.goal)


@dataclass(frozen=True)
class PlannerReport:
    """Outcome of one optimize_nominal call."""

    iterations: int
    final_cost: float
    terminal_position_error: float
    terminal_heading_error: float
    gradient_norm: float
    converged: bool
    cost_history: tuple[float, ...]
    max_bound_violation: float

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")


def goal_tracking_cost(
    model: KinematicCar,
    x_g: Array,
    effort_weight: float = 0.1,
    goal_weight: float = 100.0,
    bound_weight: float = 100.0,
) -> GoalCost:
    """The goal cost toward ``x_g`` under the model's control bounds.

    The terminal weights are all 1 except HEADING_WEIGHT on the third
    (heading) component of planar models. Each cost weight must be finite
    and nonnegative, and is stored plus 0.0, so that a -0.0 weight is +0.0.
    """
    weights = (effort_weight, goal_weight, bound_weight)
    # Negated, so that NaN fails the test as well.
    if not all(0.0 <= w < math.inf for w in weights):
        raise ValueError(f"cost weights must be finite and nonnegative, got {weights}")
    effort_weight, goal_weight, bound_weight = (w + 0.0 for w in weights)
    w_diag = np.ones(model.state_dim)
    if model.state_dim >= 3:
        w_diag[2] = HEADING_WEIGHT
    return GoalCost(
        goal=np.asarray(x_g, dtype=float),
        effort_weight=effort_weight,
        goal_weight=goal_weight,
        bound_weight=bound_weight,
        bounds=model.control_bounds(),
        terminal_weights=w_diag,
    )


def _check_rollout(states: Array, controls: Array) -> tuple[Array, Array]:
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2 or len(controls) < 1 or len(states) != len(controls) + 1:
        raise ValueError("expected nonempty (K, n_u) controls and K+1 states")
    return states, controls


def nominal_cost(cost: GoalCost, states: Array, controls: Array) -> float:
    """Cost of a rollout, states (K+1, n) under controls (K, m), penalties included."""
    states, controls = _check_rollout(states, controls)
    # Python floats summed left to right, as a stage-by-stage loop adds them.
    total = sum(cost.stage(controls).tolist())
    return float(total + cost.terminal(states[-1]))


def cost_gradient(
    model: KinematicCar,
    cost: GoalCost,
    states: Array,
    controls: Array,
    terms: Optional[tuple] = None,
) -> Array:
    """Gradient of nominal_cost with respect to each control along a rollout.

    lam = model.costates(dc_K/dx, A_t) and g_t = dc_t/du + B_t^T lam_{t+1},
    with all (A_t, B_t) from one batched Jacobian call. The stage cost does
    not depend on the state, so the backward recursion has no forcing. Each
    plant owns its costates, as it owns ``open_loop_rollout``: the car's are a
    stacked product and a running sum, bit for bit the unforced
    ``error_analysis.adjoint_sweep``, which a plant without that structure
    returns.
    ``terms`` are what ``model.open_loop_rollout`` returned with ``states``;
    the Jacobians reuse them, and compute them afresh when they are None.
    """
    states, controls = _check_rollout(states, controls)
    a, b = model.transition_jacobians(states[:-1], controls, terms)
    lam = model.costates(cost.terminal_grad(states[-1]), a)
    return cost.stage_grad(controls) + np.matmul(lam[1:, None, :], b)[:, 0, :]


def _norm(x: Array) -> float:
    """Euclidean norm of a 1-D float vector, the value ``np.linalg.norm`` returns."""
    return math.sqrt(x.dot(x))


def _two_loop_direction(grad: Array, pairs: list[tuple[Array, Array, float, float]]) -> Array:
    """Limited-memory quasi-Newton direction from curvature pairs, oldest first.

    A pair is (s, y, 1 / s'y, s'y / y'y); the newest pair's s'y / y'y scales
    the initial inverse Hessian (Nocedal and Wright, section 7.2).
    """
    q = grad.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * s.dot(q)
        alphas.append(a)
        q -= a * y
    if pairs:
        q *= pairs[-1][3]
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        beta = rho * y.dot(q)
        q += (a - beta) * s
    return -q


def _wrap_angle(a: float) -> float:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def optimize_nominal(
    model: KinematicCar,
    cost: GoalCost,
    x0: Array,
    horizon: int,
    tolerance: float = 1e-6,
    max_iters: int = 500,
) -> tuple[NominalTrajectory, PlannerReport]:
    """Minimize the nominal rollout cost over the control sequence.

    The search starts from zero controls, and accepted iterates have
    nonincreasing cost. Termination: gradient norm below ``tolerance``
    (converged), a line-search step collapse (converged only with the
    gradient norm within ``COLLAPSE_GRADIENT_FACTOR`` times ``tolerance``),
    else the iteration cap (converged=False); the best iterate is returned
    either way. The returned controls are projected onto the model bounds,
    so the stored trajectory re-rolls through the checked dynamics.
    """
    x0 = np.asarray(x0, dtype=float)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if x0.shape != (model.state_dim,):
        raise ValueError(f"initial state has shape {x0.shape}, expected ({model.state_dim},)")
    k, n_u = horizon, model.control_dim

    def value(z: Array) -> tuple[float, Array, tuple]:
        controls = z.reshape(k, n_u)
        states, terms = model.open_loop_rollout(x0, controls)
        j = nominal_cost(cost, states, controls)
        if not math.isfinite(j):
            raise NumericalFailure(f"cost is not finite ({j})")
        return j, states, terms

    def grad(z: Array, states: Array, terms: tuple) -> Array:
        g = cost_gradient(model, cost, states, z.reshape(k, n_u), terms).ravel()
        if not np.isfinite(g).all():
            raise NumericalFailure("cost gradient is not finite")
        return g

    # An overflow shows up as a non-finite cost or gradient, reported as a failure.
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.zeros(k * n_u)
        j, states, terms = value(z)
        g = grad(z, states, terms)
        history = [j]
        # Every iterate is a new array that nothing writes into, so the best
        # one is kept by reference.
        best_z, best_j, best_states, best_terms = z, j, states, terms
        pairs: list[tuple[Array, Array, float, float]] = []
        iterations = 0
        converged = _norm(g) <= tolerance

        while not converged and iterations < max_iters:
            d = _two_loop_direction(g, pairs)
            slope = d.dot(g)
            if slope >= 0.0:  # degraded curvature memory; fall back to steepest descent
                pairs = []
                d = -g
                slope = d.dot(g)
            alpha = 1.0
            z_new = z + d
            j_new, states, terms = value(z_new)
            while j_new > j + ARMIJO_C1 * alpha * slope:
                alpha *= 0.5
                if alpha < STEP_FLOOR:
                    break
                z_new = z + alpha * d
                j_new, states, terms = value(z_new)
            if alpha < STEP_FLOOR:
                converged = _norm(g) <= COLLAPSE_GRADIENT_FACTOR * tolerance
                break
            g_new = grad(z_new, states, terms)
            s, y = z_new - z, g_new - g
            # One s'y and one y'y serve the curvature test and the pair's scalars.
            sy, yy = s.dot(y), y.dot(y)
            if sy > CURVATURE_SKIP * _norm(s) * math.sqrt(yy):
                pairs.append((s, y, 1.0 / sy, sy / yy))
                if len(pairs) > MEMORY:
                    del pairs[0]
            z, j, g = z_new, j_new, g_new
            history.append(j)
            if j < best_j:
                best_z, best_j, best_states, best_terms = z, j, states, terms
            iterations += 1
            if _norm(g) <= tolerance:
                converged = True

        controls = best_z.reshape(k, n_u)
        gradient_norm = _norm(grad(best_z, best_states, best_terms))

    max_violation = float(np.max(np.maximum(0.0, np.abs(controls) - model.control_bounds())))
    model.clamp_rows(controls.T)

    trajectory = model.rollout_nominal(x0, controls)
    final_cost = nominal_cost(cost, trajectory.states, trajectory.controls)

    diff = trajectory.states[-1] - cost.goal
    pos_err = float(np.linalg.norm(diff[: min(2, len(diff))]))
    head_err = abs(_wrap_angle(float(diff[2]))) if len(diff) >= 3 else np.nan

    report = PlannerReport(
        iterations=iterations,
        final_cost=final_cost,
        terminal_position_error=pos_err,
        terminal_heading_error=head_err,
        gradient_norm=gradient_norm,
        converged=converged,
        cost_history=tuple(history),
        max_bound_violation=max_violation,
    )
    return trajectory, report
