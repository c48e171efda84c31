"""First-order tracking-error and cost-error analysis around a nominal.

Under the feedback law u_t = u_nom_t - L_t (x_t - x_nom_t), the linearized
deviation dynamics are xdev_{t+1} = D_t xdev_t + w_t with D_t = A_t - B_t L_t
(``lqr.closed_loop_matrices``) and udev_t = -L_t xdev_t, started on the
nominal (xdev_0 = 0). ``linear_deviations`` runs that recursion in O(K).

Plugging the deviations into the first-order cost expansion shows that the
cost deviation from the nominal cost is linear in the noise,
sum_s v_s . w_s, with one sensitivity vector per noise step. It therefore
has exactly zero mean for zero-mean noise and is Gaussian for Gaussian
noise. ``cost_error_sensitivities`` computes every v_s with the planner's
backward ``adjoint_sweep`` over a cost linearization:

    mu_K = cx_K,  mu_t = cx_t - L_t^T cu_t + D_t^T mu_{t+1},  v_s = mu_{s+1}.

The deviation recursion, the cost error and the sensitivities each take
one instance or a batch of one (K, n, m) shape, row i bit-identical to the
call on instance i.

``cost_error_statistics`` samples the moments of sum_s v_s . w_s from given
sensitivities and a given noise sigma. It draws the noise in blocks of
``COST_ERROR_BLOCK`` rows through one reused buffer, so its memory does not
grow with the block count: whole blocks give the samples of a single draw
bit for bit, and only a ragged last block may move a sample's last bits.
Everything here is array math: the caller linearizes the cost and picks the
noise level.

The paper's non-recursive forms are oracles for these recursions: the
noise maps D_t ... D_{s+1} and the explicit deviation sums in ``verify``,
the per-(s, t) cost coefficients in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._stats import skewness_kurtosis
from .dynamics import Array
from .planner import CostLinearization, adjoint_sweep

# Rows of noise drawn and reduced at a time by ``cost_error_statistics``,
# through one buffer reused for every block. The blocks come from one
# generator in order, so they hold exactly the numbers of a single draw.
# BLAS splits each product by its row count, so a sample can move in its
# last bits only when the last block is ragged; whole blocks (the verify
# suite's 100,000 samples) match a single draw bit for bit, whatever the
# block size.
COST_ERROR_BLOCK = 1_000


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
