"""Finite-horizon time-varying LQR synthesis along a nominal trajectory.

Linearizing the dynamics at each nominal point gives an LTV system
(A_t, B_t); the backward Riccati recursion

    P_K = Wx
    L_t = (Wu + B_t^T P_{t+1} B_t)^{-1} B_t^T P_{t+1} A_t
    P_t = Wx + A_t^T P_{t+1} (A_t - B_t L_t)

with the constant diagonal weights Wx = diag(wx) and Wu = diag(wu), yields
gains for the tracking law u_t = u_nom_t - L_t (x_t - x_nom_t). P is
symmetrized after every step to suppress asymmetric round-off. The
value identity x0^T P_0 x0 = accumulated quadratic cost under the gains
holds for the noise-free LTV error dynamics.

Under those gains the deviation from the nominal evolves as
xdev_{t+1} = D_t xdev_t + w_t with D_t = A_t - B_t L_t; ``closed_loop_matrices``
is the one builder of that stack, stored on the policy and used by the
first-order error analysis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Array, KinematicCar, NominalTrajectory
from .exceptions import DomainError, NumericalFailure


@dataclass(frozen=True, eq=False)
class LtvSystem:
    """Time-indexed linearization: A stacked (K, n, n), B stacked (K, n, m).

    A leading batch axis, A (N, K, n, n) with B (N, K, n, m), holds N
    systems of one shape; ``riccati_backward`` and ``closed_loop_matrices``
    then return one row per system, bit-identical to the single-system call.
    """

    a: Array
    b: Array

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim not in (3, 4) or a.shape[-2] != a.shape[-1]:
            raise ValueError("A must be a (K, n, n) or (N, K, n, n) stack of square matrices")
        if b.ndim != a.ndim or b.shape[:-1] != a.shape[:-1]:
            raise ValueError("B must be a (K, n, m) or (N, K, n, m) stack aligned with A")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def horizon(self) -> int:
        return self.a.shape[-3]

    @property
    def state_dim(self) -> int:
        return self.a.shape[-1]

    @property
    def control_dim(self) -> int:
        return self.b.shape[-1]


@dataclass(frozen=True, eq=False)
class LqrWeights:
    """Diagonals of the tracking weights Wx (n,) and Wu (m,).

    The same weights apply at every step, the terminal step included. wx
    entries must be >= 0 and wu entries > 0, so every gain system
    Wu + B^T P B is positive definite.
    """

    wx: Array
    wu: Array

    def __post_init__(self):
        wx = np.asarray(self.wx, dtype=float)
        wu = np.asarray(self.wu, dtype=float)
        for name, w in (("wx", wx), ("wu", wu)):
            if w.ndim != 1 or w.size == 0:
                raise ValueError(f"{name} must be a non-empty vector of diagonal entries")
            if not np.isfinite(w).all():
                raise ValueError(f"{name} entries must be finite")
        if (wx < 0.0).any():
            raise ValueError("wx entries must be >= 0")
        if (wu <= 0.0).any():
            raise ValueError("wu entries must be > 0")
        object.__setattr__(self, "wx", wx)
        object.__setattr__(self, "wu", wu)


@dataclass(frozen=True, eq=False)
class TrackingPolicy:
    """Nominal trajectory plus time-varying feedback gains.

    ``closed_loop[t]`` stores A_t - B_t L_t; ``riccati`` has K+1 entries with
    the terminal weight last. ``model`` is the plant the policy was designed
    for and runs on: it supplies the execution-time control clamp and the
    Euler step of every rollout.
    """

    nominal: NominalTrajectory
    gains: Array
    riccati: Array
    closed_loop: Array
    model: KinematicCar

    def __post_init__(self):
        k = self.nominal.horizon
        if self.gains.shape[0] != k or self.closed_loop.shape[0] != k:
            raise ValueError("gains and closed_loop must have one entry per control step")
        if self.riccati.shape[0] != k + 1:
            raise ValueError("riccati must have K+1 entries")
        n, m = self.model.state_dim, self.model.control_dim
        if (self.nominal.state_dim, self.nominal.control_dim) != (n, m):
            raise ValueError(
                f"policy dimensions (n={self.nominal.state_dim}, m={self.nominal.control_dim}) "
                f"do not match the model (n={n}, m={m})"
            )

    @property
    def horizon(self) -> int:
        return self.nominal.horizon


def linearize_along(model: KinematicCar, nominal: NominalTrajectory) -> LtvSystem:
    """Jacobians of the Euler step at every nominal (state, control) pair.

    Raises ``ValueError`` when the nominal's dimensions are not the model's,
    and ``DomainError`` when a steering angle (the last control) reaches its
    strict bound, where the heading-rate map tan(phi)/L is singular.
    """
    n, m = model.state_dim, model.control_dim
    if (nominal.state_dim, nominal.control_dim) != (n, m):
        raise ValueError(
            f"nominal dimensions (n={nominal.state_dim}, m={nominal.control_dim}) "
            f"do not match the model (n={n}, m={m})"
        )
    phi, phi_max = nominal.controls[:, -1], model.control_bounds()[-1]
    singular = phi[np.abs(phi) >= phi_max]
    if len(singular):
        raise DomainError(
            f"heading-rate map is singular at |phi| >= phi_max ({phi_max:.6g}); "
            f"got phi = {singular[0]:.6g}"
        )
    a, b = model.transition_jacobians(nominal.states[:-1], nominal.controls)
    return LtvSystem(a=a, b=b)


def riccati_backward(sys: LtvSystem, weights: LqrWeights) -> tuple[Array, Array]:
    """Backward Riccati recursion; returns (gains (K, m, n), riccati (K+1, n, n)).

    A batched system (N, K, ...) shares the weights and gets (N, K, m, n)
    gains and (N, K+1, n, n) Riccati matrices. A P or gain that is not
    finite, as when huge weights overflow, raises ``NumericalFailure`` naming
    the first such step of the recursion.
    """
    k, n, m = sys.horizon, sys.state_dim, sys.control_dim
    if weights.wx.shape != (n,) or weights.wu.shape != (m,):
        raise ValueError(f"weights must have the LTV system's n={n} and m={m} entries")
    wx, wu = np.diag(weights.wx), np.diag(weights.wu)
    batch = sys.a.shape[:-3]
    gains = np.empty(batch + (k, m, n))
    riccati = np.empty(batch + (k + 1, n, n))
    riccati[..., k, :, :] = wx
    # An overflow shows up as a non-finite entry, reported below as a failure.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(k - 1, -1, -1):
            a, b = sys.a[..., t, :, :], sys.b[..., t, :, :]
            p_next = riccati[..., t + 1, :, :]
            # B'P, the left factor of both B'PB and B'PA (``@`` groups left).
            bp = np.swapaxes(b, -1, -2) @ p_next
            gram = wu + bp @ b
            try:
                gain = np.linalg.solve(gram, bp @ a)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"singular gain system at step {t}") from exc
            gains[..., t, :, :] = gain
            p = wx + np.swapaxes(a, -1, -2) @ p_next @ (a - b @ gain)
            riccati[..., t, :, :] = 0.5 * (p + np.swapaxes(p, -1, -2))
    finite = np.isfinite(gains).all(axis=(-2, -1)) & np.isfinite(riccati[..., :k, :, :]).all(
        axis=(-2, -1)
    )
    if not finite.all():
        t = np.nonzero(~finite)[-1].max()  # the recursion runs backward from step K-1
        raise NumericalFailure(f"Riccati recursion is not finite at step {t}")
    return gains, riccati


def closed_loop_matrices(sys: LtvSystem, gains: Array) -> Array:
    """Closed-loop matrices D_t = A_t - B_t L_t for t = 0 .. K-1, shape (K, n, n).

    A batched system takes (N, K, m, n) gains and returns (N, K, n, n).
    """
    gains = np.asarray(gains, dtype=float)
    expected = sys.a.shape[:-3] + (sys.horizon, sys.control_dim, sys.state_dim)
    if gains.shape != expected:
        raise ValueError(f"gains have shape {gains.shape}, expected {expected}")
    return sys.a - np.einsum("...tnm,...tmk->...tnk", sys.b, gains)


def design_tracking_policy(
    model: KinematicCar, nominal: NominalTrajectory, weights: LqrWeights
) -> TrackingPolicy:
    """Linearize along the nominal and synthesize the tracking gains."""
    sys = linearize_along(model, nominal)
    gains, riccati = riccati_backward(sys, weights)
    closed_loop = closed_loop_matrices(sys, gains)
    return TrackingPolicy(
        nominal=nominal, gains=gains, riccati=riccati, closed_loop=closed_loop, model=model
    )


def feedback_rows(policy: TrackingPolicy, t: int, x: Array, out: Array) -> Array:
    """Write the clamped tracking control at step t into ``out`` and return it, on component rows.

    ``x`` is (n, N) and ``out`` (m, N), one row per component. No checks:
    ``t`` and the shapes are the caller's to get right.
    """
    # Elementwise products summed by np.sum over the state axis, not a matrix
    # product: BLAS picks kernels by batch size, which would make a run's
    # rounding depend on its batch.
    dev = x - policy.nominal.states[t][:, None]
    np.sum(policy.gains[t][:, :, None] * dev, axis=1, out=out)
    np.subtract(policy.nominal.controls[t][:, None], out, out=out)
    return policy.model.clamp_rows(out)
