"""First-order tracking-error and cost-error analysis around a nominal.

Under the feedback law u_t = u_nom_t - L_t (x_t - x_nom_t), the linearized
deviation dynamics are xdev_{t+1} = D_t xdev_t + w_t with D_t = A_t - B_t L_t
(``lqr.closed_loop_matrices``) and udev_t = -L_t xdev_t, started on the
nominal (xdev_0 = 0). ``linear_deviations`` runs that recursion in O(K).

Plugging the deviations into the first-order cost expansion shows that the
cost deviation from the nominal cost is linear in the noise,
sum_s v_s . w_s, with one sensitivity vector per noise step. It therefore
has exactly zero mean for zero-mean noise and is Gaussian for Gaussian
noise. ``cost_error_sensitivities`` computes every v_s with one backward
``adjoint_sweep`` over the cost's linearization along the nominal
(``linearize_cost``):

    mu_K = cx_K,  mu_t = cx_t - L_t^T cu_t + D_t^T mu_{t+1},  v_s = mu_{s+1}.

The deviation recursion, the cost error and the sensitivities each take
one instance or a batch of one (K, n, m) shape, row i bit-identical to the
call on instance i.

``cost_error_statistics`` samples the moments of sum_s v_s . w_s from given
sensitivities and a given noise sigma. It draws the noise in blocks of
``COST_ERROR_BLOCK`` rows through one reused buffer, so its memory does not
grow with the block count: whole blocks give the samples of a single draw
bit for bit, and only a ragged last block may move a sample's last bits.
Everything here is array math: the caller picks the cost, the nominal it is
linearized along and the noise level.

The paper's non-recursive forms are oracles for these recursions: the
noise maps D_t ... D_{s+1} and the explicit deviation sums in ``verify``,
the per-(s, t) cost coefficients in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import Array, NominalTrajectory
from .planner import GoalCost

# Rows of noise drawn and reduced at a time by ``cost_error_statistics``,
# through one buffer reused for every block. The blocks come from one
# generator in order, so they hold exactly the numbers of a single draw.
# BLAS splits each product by its row count, so a sample can move in its
# last bits only when the last block is ragged; whole blocks (the verify
# suite's 100,000 samples) match a single draw bit for bit, whatever the
# block size.
COST_ERROR_BLOCK = 1_000


@dataclass(frozen=True, eq=False)
class CostLinearization:
    """Cost gradients along a trajectory, one row per stage."""

    cx: Array
    cu: Array
    cx_terminal: Array

    @property
    def horizon(self) -> int:
        return self.cx.shape[-2]


def linearize_cost(cost: GoalCost, nominal: NominalTrajectory) -> CostLinearization:
    """Stage and terminal cost gradients evaluated at the trajectory points.

    The stage cost does not depend on the state, so ``cx`` is zero. ``cu``
    is C-ordered whatever the layout of the controls: the reductions that
    read it (``einsum`` in the cost-error analysis) sum in memory order.
    """
    return CostLinearization(
        cx=np.zeros((nominal.horizon, nominal.state_dim)),
        cu=np.ascontiguousarray(cost.stage_grad(nominal.controls)),
        cx_terminal=cost.terminal_grad(nominal.states[-1]),
    )


def adjoint_sweep(terminal: Array, forcing: Optional[Array], maps: Array) -> Array:
    """Backward vector recursion lam_K = terminal, lam_t = forcing_t + maps_t^T lam_{t+1}.

    Takes the (n,) terminal, K forcing rows (K, n) and K maps (K, n, n), and
    returns the (K+1, n) history lam_0..lam_K; ``forcing=None`` is zero
    forcing. With a leading batch axis on every input, (N, n), (N, K, n) and
    (N, K, n, n), it returns (N, K+1, n), row i bit-identical to the call on
    instance i. Each step is one matmul of the swapped maps by lam_{t+1} as
    a column, which takes one instance's path for a batch row too: a BLAS
    gemv on C-ordered maps. An elementwise sum or an einsum rounds
    differently.

    This is the one general backward sweep. ``cost_error_sensitivities``
    calls it, and so does the ``costates`` of a plant without a shortcut of
    its own; the planner's gradient on the car takes
    ``KinematicCar.costates``, bit for bit this sweep.
    """
    maps = np.asarray(maps, dtype=float)
    terminal = np.asarray(terminal, dtype=float)
    k = maps.shape[-3]
    lam = np.empty(terminal.shape[:-1] + (k + 1, terminal.shape[-1]))
    lam[..., k, :] = terminal
    maps_t = np.swapaxes(maps, -1, -2)
    for t in range(k - 1, -1, -1):
        np.matmul(maps_t[..., t, :, :], lam[..., t + 1, :, None], out=lam[..., t, :, None])
        if forcing is not None:
            lam[..., t, :] += forcing[..., t, :]
    return lam


def linear_deviations(closed_loop: Array, gains: Array, noises: Array) -> tuple[Array, Array]:
    """First-order deviation history from a complete noise sequence.

    xdev_0 = 0, xdev_{t+1} = D_t xdev_t + w_t and udev_t = -L_t xdev_t.
    Returns the (K+1, n) state and (K, m) control deviations. With a leading
    batch axis on all three inputs it returns (N, K+1, n) and (N, K, m),
    row i bit-identical to the call on instance i.
    """
    d = np.asarray(closed_loop, dtype=float)
    gains = np.asarray(gains, dtype=float)
    noises = np.asarray(noises, dtype=float)
    k = d.shape[-3]
    if noises.shape != d.shape[:-1]:
        raise ValueError(f"noises must be {d.shape[:-1]}")
    states = np.zeros(noises.shape[:-2] + (k + 1, noises.shape[-1]))
    for t in range(k):
        step = d[..., t, :, :] @ states[..., t, :, None]
        states[..., t + 1, :] = step[..., 0] + noises[..., t, :]
    controls = -np.einsum("...tmn,...tn->...tm", gains, states[..., :k, :])
    return states, controls


def first_order_cost_error(
    lin: CostLinearization, states: Array, controls: Array
) -> float | Array:
    """Linear part of the cost deviation: sum_t (cx_t xdev_t + cu_t udev_t) + terminal.

    Takes (K+1, n) states and (K, m) controls and returns a float. With a
    leading batch axis, (N, K+1, n) and (N, K, m), it returns an (N,) array,
    row i bit-identical to the call on instance i; ``lin`` then holds one
    linearization per instance, (N, K, ...), or one shared by all.
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    k = lin.cx.shape[-2]
    if states.shape[-2] != k + 1 or controls.shape[-2] != k:
        raise ValueError("deviation horizon does not match the cost linearization")
    stage = np.einsum("...tn,...tn->...", lin.cx, states[..., :k, :])
    effort = np.einsum("...tm,...tm->...", lin.cu, controls)
    # A matmul of one row by one column is a dot per instance; a batched
    # einsum would sum the terminal product in another order.
    terminal = (lin.cx_terminal[..., None, :] @ states[..., k, :, None])[..., 0, 0]
    total = stage + effort + terminal
    return float(total) if total.ndim == 0 else total


def cost_error_sensitivities(lin: CostLinearization, closed_loop: Array, gains: Array) -> Array:
    """Per-noise sensitivities v (K, n): the first-order cost error is sum_s v_s . w_s.

    v_s = mu_{s+1} of ``adjoint_sweep`` with forcing cx_t - L_t^T cu_t and
    maps D_t. Stage 0 never enters, since xdev_0 = 0. With a leading batch
    axis on ``lin``, the closed-loop matrices and the gains, (N, K, ...), it
    returns (N, K, n), row i bit-identical to the call on instance i.
    """
    d = np.asarray(closed_loop, dtype=float)
    gains = np.asarray(gains, dtype=float)
    k = lin.horizon
    if d.shape[-3] != k or gains.shape[-3] != k:
        raise ValueError("closed-loop and gain horizons do not match the cost linearization")
    forcing = lin.cx - (np.swapaxes(gains, -1, -2) @ lin.cu[..., None])[..., 0]
    return adjoint_sweep(lin.cx_terminal, forcing, d)[..., 1:, :]


@dataclass(frozen=True)
class CostErrorStats:
    """Monte Carlo moments of the first-order cost error."""

    n: int
    mean: float
    sd: float
    z: float
    skewness: float
    kurtosis: float


def skewness_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Moment-based sample skewness g1 = m3 / m2^(3/2) and excess kurtosis g2 = m4 / m2^2 - 3.

    Both are 0.0 for constant data (m2 = 0). One scratch array holds each
    power d^2, d^3 and d^4 in turn, with the deviation d = x - mean
    recomputed into it before each power, so it rounds as one centred copy
    would; ``x`` is not modified.
    """
    x = np.asarray(x, dtype=float)
    mean = x.mean()
    t = np.subtract(x, mean)
    m2 = np.mean(np.multiply(t, t, out=t))
    if m2 == 0.0:
        return 0.0, 0.0
    m3 = np.mean(np.power(np.subtract(x, mean, out=t), 3, out=t))
    m4 = np.mean(np.power(np.subtract(x, mean, out=t), 4, out=t))
    return float(m3 / m2**1.5), float(m4 / m2**2 - 3.0)


def cost_error_statistics(v: Array, sigma: float, n_samples: int, seed: int) -> CostErrorStats:
    """Sample the first-order cost error sum_s v_s . w_s with w_s ~ N(0, sigma^2 I).

    ``v`` holds the (K, n) sensitivities of ``cost_error_sensitivities``.
    Each sample evaluates the exact linear-in-noise form of the cost error,
    so the population mean is identically zero; the reported z-score and
    moment statistics quantify the sampling evidence. Each block of
    ``COST_ERROR_BLOCK`` noise rows is drawn, scaled and reduced in place in
    one buffer, which is freed before the moments are taken.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    v = np.asarray(v, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    samples = np.empty(n_samples)
    rows = np.empty((min(COST_ERROR_BLOCK, n_samples), v.size))
    for start in range(0, n_samples, COST_ERROR_BLOCK):
        block = rows[: min(COST_ERROR_BLOCK, n_samples - start)]
        rng.standard_normal(out=block)
        block *= sigma
        np.matmul(block, v, out=samples[start : start + len(block)])
    del rows, block

    mean = float(samples.mean())
    sd = float(samples.std(ddof=1))
    z = 0.0 if sd == 0.0 else mean / (sd / np.sqrt(n_samples))
    skew, kurt = skewness_kurtosis(samples)
    return CostErrorStats(
        n=n_samples,
        mean=mean,
        sd=sd,
        z=float(z),
        skewness=skew,
        kurtosis=kurt,
    )
