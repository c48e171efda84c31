"""Finite-horizon time-varying LQR synthesis along a nominal trajectory.

Linearizing the dynamics at each nominal point gives an LTV system, the
stacks A (K, n, n) and B (K, n, m) that every function here takes as plain
arrays; the backward Riccati recursion

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
from .exceptions import NumericalFailure


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


def linearize_along(model: KinematicCar, nominal: NominalTrajectory) -> tuple[Array, Array]:
    """Jacobians of the Euler step at every nominal (state, control) pair.

    Returns the stacks A (K, n, n) and B (K, n, m). Raises ``ValueError``
    when the nominal's dimensions are not the model's, and the model's
    ``validate_control`` error (the car's ``BoundViolation``) when a nominal
    control lies outside its domain.
    """
    n, m = model.state_dim, model.control_dim
    if (nominal.state_dim, nominal.control_dim) != (n, m):
        raise ValueError(
            f"nominal dimensions (n={nominal.state_dim}, m={nominal.control_dim}) "
            f"do not match the model (n={n}, m={m})"
        )
    model.validate_control(nominal.controls)
    return model.transition_jacobians(nominal.states[:-1], nominal.controls)


def riccati_backward(a: Array, b: Array, weights: LqrWeights) -> tuple[Array, Array]:
    """Backward Riccati recursion; returns (gains (K, m, n), riccati (K+1, n, n)).

    Takes A stacked (K, n, n) and B stacked (K, n, m). A leading batch axis,
    A (N, K, n, n) with B (N, K, n, m), holds N systems of one shape that
    share the weights; they get (N, K, m, n) gains and (N, K+1, n, n)
    Riccati matrices, row i bit-identical to the single-system call. A P or
    gain that is not finite, as when huge weights overflow, raises
    ``NumericalFailure`` naming the first such step of the recursion.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim not in (3, 4) or a.shape[-2] != a.shape[-1]:
        raise ValueError("A must be a (K, n, n) or (N, K, n, n) stack of square matrices")
    if b.shape[:-1] != a.shape[:-1]:
        raise ValueError("B must be a (K, n, m) or (N, K, n, m) stack aligned with A")
    k, n, m = b.shape[-3:]
    if weights.wx.shape != (n,) or weights.wu.shape != (m,):
        raise ValueError(f"weights must have the LTV system's n={n} and m={m} entries")
    wx, wu = np.diag(weights.wx), np.diag(weights.wu)
    batch = a.shape[:-3]
    gains = np.empty(batch + (k, m, n))
    riccati = np.empty(batch + (k + 1, n, n))
    riccati[..., k, :, :] = wx
    # An overflow shows up as a non-finite entry, reported below as a failure.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(k - 1, -1, -1):
            a_t, b_t = a[..., t, :, :], b[..., t, :, :]
            p_next = riccati[..., t + 1, :, :]
            # B'P, the left factor of both B'PB and B'PA (``@`` groups left).
            bp = np.swapaxes(b_t, -1, -2) @ p_next
            gram = wu + bp @ b_t
            try:
                gain = np.linalg.solve(gram, bp @ a_t)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"singular gain system at step {t}") from exc
            gains[..., t, :, :] = gain
            p = wx + np.swapaxes(a_t, -1, -2) @ p_next @ (a_t - b_t @ gain)
            riccati[..., t, :, :] = 0.5 * (p + np.swapaxes(p, -1, -2))
    finite = np.isfinite(gains).all(axis=(-2, -1)) & np.isfinite(riccati[..., :k, :, :]).all(
        axis=(-2, -1)
    )
    if not finite.all():
        t = np.nonzero(~finite)[-1].max()  # the recursion runs backward from step K-1
        raise NumericalFailure(f"Riccati recursion is not finite at step {t}")
    return gains, riccati


def closed_loop_matrices(a: Array, b: Array, gains: Array) -> Array:
    """Closed-loop matrices D_t = A_t - B_t L_t for t = 0 .. K-1, shape (K, n, n).

    A batch of systems (N, K, ...) takes (N, K, m, n) gains and returns
    (N, K, n, n).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gains = np.asarray(gains, dtype=float)
    *lead, n, m = b.shape
    if a.shape != (*lead, n, n):
        raise ValueError(f"A has shape {a.shape}, expected {(*lead, n, n)}")
    if gains.shape != (*lead, m, n):
        raise ValueError(f"gains have shape {gains.shape}, expected {(*lead, m, n)}")
    return a - np.einsum("...tnm,...tmk->...tnk", b, gains)


def design_tracking_policy(
    model: KinematicCar, nominal: NominalTrajectory, weights: LqrWeights
) -> TrackingPolicy:
    """Linearize along the nominal and synthesize the tracking gains."""
    a, b = linearize_along(model, nominal)
    gains, riccati = riccati_backward(a, b, weights)
    closed_loop = closed_loop_matrices(a, b, gains)
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
