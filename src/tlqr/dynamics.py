"""Discrete-time nonlinear system models with Jacobian access.

A model owns a deterministic step map ``x_{t+1} = f(x_t, u_t)`` on a
fixed step period and exposes its Jacobians with respect to state and
control.

The built-in :class:`KinematicCar` discretizes the planar car kinematics

    x' = v cos(theta),  y' = v sin(theta),  theta' = (v / L) tan(phi)

with an explicit Euler step, which keeps the Jacobians hand-checkable:
A = I + dt * J_x, B = dt * J_u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BoundViolation

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class NominalTrajectory:
    """A dynamically feasible state/control pair sequence.

    ``states`` has one more row than ``controls``.
    """

    states: Array
    controls: Array

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        controls = np.asarray(self.controls, dtype=float)
        if states.ndim != 2 or controls.ndim != 2:
            raise ValueError("states and controls must be 2-d arrays")
        if len(states) != len(controls) + 1:
            raise ValueError(
                f"expected K+1 states for K controls, got {len(states)} states "
                f"and {len(controls)} controls"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)

    @property
    def horizon(self) -> int:
        return len(self.controls)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def control_dim(self) -> int:
        return self.controls.shape[1]


@dataclass(frozen=True, eq=False)
class KinematicCar:
    """Car-like robot: state (x, y, theta), control (v, phi).

    Instances are immutable. ``step_rows`` and ``clamp_rows`` are the one
    implementation of the Euler step and the clamp, on component rows (one
    row per component, a column per state), writing into buffers the caller
    owns; ``transition_jacobians`` takes a batch of (state, control) pairs.
    ``step_rows``, ``transition_jacobians`` and ``open_loop_rollout`` skip
    the bound checks, as the planner's penalty method needs;
    ``rollout_nominal`` checks them.

    The Euler step couples the state only through the heading: the drift
    depends on theta alone, and the Jacobian A_t differs from the identity
    only in its heading column. So ``open_loop_rollout`` runs forward as
    prefix sums of the increments, and ``costates`` runs backward as one
    stacked product and a reverse running sum of the heading entries. The
    rollout hands back the tan(phi), cos(theta) and sin(theta) it took, and
    ``transition_jacobians`` takes them instead of evaluating them again.

    Controls are bounded by |v| <= v_max and |phi| < phi_max; the heading
    rate tan(phi)/L is singular at |phi| = phi_max when phi_max = pi/2.
    step_period = 0 is tolerated as a degenerate test configuration.
    """

    wheelbase: float = 0.5
    step_period: float = 0.7
    v_max: float = 0.6
    phi_max: float = np.pi / 2

    state_dim: int = field(default=3, init=False, repr=False)
    control_dim: int = field(default=2, init=False, repr=False)

    def __post_init__(self):
        # Negated comparisons, so that NaN fails too.
        if not 0 < self.wheelbase < np.inf:
            raise ValueError("wheelbase must be positive and finite")
        if not 0 <= self.step_period < np.inf:
            raise ValueError("step_period must be nonnegative and finite")
        if not 0 < self.v_max < np.inf:
            raise ValueError("v_max must be positive and finite")
        if not 0 < self.phi_max <= np.pi / 2:
            raise ValueError("phi_max must lie in (0, pi/2]")

    def step_rows(self, x: Array, u: Array, out: Array) -> Array:
        """Write the Euler step x + dt * f(x, u) into ``out`` and return it, on component rows.

        ``x`` is (3, N) and ``u`` (2, N) or (2, 1), one row per component;
        ``out`` is (3, N), must not overlap either and serves as scratch. Each
        entry takes the operations of the drift in the same order, so it is
        bit for bit the entry of a per-state step.
        """
        v, phi = u
        np.divide(v, self.wheelbase, out=out[0])
        np.tan(phi, out=out[2])
        out[2] *= out[0]
        np.cos(x[2], out=out[0])
        out[0] *= v
        np.sin(x[2], out=out[1])
        out[1] *= v
        out *= self.step_period
        out += x
        return out

    def open_loop_rollout(
        self, x0: Array, controls: Array
    ) -> tuple[Array, tuple[Array, Array, Array]]:
        """States (K+1, 3) under controls (K, 2), and the (K,) tan phi_t, cos theta_t, sin theta_t.

        An Euler step adds dt * drift, and the drift depends on the heading
        alone, so each column is a running sum of its increments. Summed left
        to right, it equals the step-by-step loop bit for bit. The three
        trigonometric terms are the ones the steps took. Passed back to
        :meth:`transition_jacobians` with these states and controls, they are
        the values it would compute: the same ufunc on the same memory.
        """
        v, phi = np.asarray(controls, dtype=float).T
        dt = self.step_period
        states = np.empty((len(v) + 1, 3))
        states[0] = x0
        tan_phi = np.tan(phi)
        states[1:, 2] = dt * (v / self.wheelbase * tan_phi)
        np.add.accumulate(states[:, 2], out=states[:, 2])
        theta = states[:-1, 2]
        cos_theta, sin_theta = np.cos(theta), np.sin(theta)
        states[1:, 0] = dt * (v * cos_theta)
        states[1:, 1] = dt * (v * sin_theta)
        np.add.accumulate(states[:, :2], axis=0, out=states[:, :2])
        return states, (tan_phi, cos_theta, sin_theta)

    def costates(self, terminal: Array, a: Array) -> Array:
        """Costates lam_K = terminal, lam_t = a_t^T lam_{t+1}, as (K+1, 3), for a (K, 3, 3).

        Bit for bit ``error_analysis.adjoint_sweep(terminal, None, a)`` on this
        model's C-ordered Jacobians, whenever that history is finite. The
        Euler step couples the state only through the heading, so a_t^T keeps
        the x and y entries of lam and adds c_t = a_t[0, 2] lam[0] +
        a_t[1, 2] lam[1] to the heading entry. One stacked product gives every
        c_t through the per-item gemv the sweep takes, and the heading entries
        are a running sum from the end: gemv adds the unit-coefficient heading
        term last, so lam_t[2] = lam_{t+1}[2] + c_t rounds as the sweep does.
        An elementwise c_t rounds differently on about one random history in five.
        """
        k = len(a)
        lam = np.empty((k + 1, 3))
        lam[k] = terminal
        np.matmul(np.swapaxes(a, -1, -2), (lam[k, 0], lam[k, 1], 0.0), out=lam[:k])
        heading = lam[::-1, 2]
        np.add.accumulate(heading, out=heading)
        return lam

    def transition_jacobians(
        self, x: Array, u: Array, terms: tuple[Array, Array, Array] | None = None
    ) -> tuple[Array, Array]:
        """Jacobians A (N, 3, 3) and B (N, 3, 2) of the Euler step at x (N, 3) and u (N, 2).

        ``terms`` are the (tan phi, cos theta, sin theta) that
        :meth:`open_loop_rollout` returned with these states and controls;
        without them they are computed here, to the same bits.
        """
        x = np.asarray(x, dtype=float)
        v, phi = np.asarray(u, dtype=float).T
        if terms is None:
            terms = np.tan(phi), np.cos(x[:, 2]), np.sin(x[:, 2])
        tan_phi, ct, st = terms
        jx = np.zeros((len(x), 3, 3))
        jx[:, 0, 2] = -v * st
        jx[:, 1, 2] = v * ct
        # cos^2 through C pow() on Python floats, as a float64 scalar's ** 2
        # takes it: the pinned reference run was computed that way. An array's
        # ** 2 multiplies instead, which differs in the last bit for about 1 in
        # 1,000 angles, and the planner's iterates amplify such bits.
        sec2 = 1.0 / np.array([c**2 for c in np.cos(phi).tolist()])
        ju = np.zeros((len(x), 3, 2))
        ju[:, 0, 0] = ct
        ju[:, 1, 0] = st
        ju[:, 2, 0] = tan_phi / self.wheelbase
        ju[:, 2, 1] = v * sec2 / self.wheelbase
        dt = self.step_period
        return np.eye(3) + dt * jx, dt * ju

    def clamp_rows(self, u: Array) -> Array:
        """Clamp the control rows (2, N) in place to the bounds and return them."""
        v, phi = u
        np.clip(v, -self.v_max, self.v_max, out=v)
        # Strict bound: the largest representable angle below phi_max.
        phi_lim = math.nextafter(self.phi_max, 0.0)
        np.clip(phi, -phi_lim, phi_lim, out=phi)
        return u

    def validate_control(self, u: Array) -> None:
        """Raise :class:`BoundViolation` on (m,) or (N, m); a batch reports its first bad row."""
        u = np.atleast_2d(u)
        # Negated comparisons, so that NaN fails too.
        bad = ~(np.abs(u[:, 0]) <= self.v_max) | ~(np.abs(u[:, 1]) < self.phi_max)
        if np.any(bad):
            v, phi = u[np.argmax(bad)]
            if not abs(v) <= self.v_max:
                raise BoundViolation("v", float(v), self.v_max)
            raise BoundViolation("phi", float(phi), self.phi_max)

    def control_bounds(self) -> Array:
        return np.array([self.v_max, self.phi_max])

    def rollout_nominal(self, x0: Array, controls: Array) -> NominalTrajectory:
        """Propagate x0 through the given control sequence.

        Returns K+1 states for K controls. The dimensions and the bounds of
        every control are checked before :meth:`open_loop_rollout` runs.
        """
        x0 = np.asarray(x0, dtype=float)
        controls = np.asarray(controls, dtype=float)
        if controls.ndim != 2 or len(controls) == 0 or controls.shape[1] != self.control_dim:
            raise ValueError(f"controls must be a nonempty (K, {self.control_dim}) array")
        if x0.shape != (self.state_dim,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.state_dim},)")
        self.validate_control(controls)
        states, _ = self.open_loop_rollout(x0, controls)
        return NominalTrajectory(states=states, controls=controls)
