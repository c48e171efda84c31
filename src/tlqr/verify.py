"""Property-verification suites with explicit tolerances.

Each suite runs a set of named checks and reports the measured value next
to its bound, so a report is reviewable without rerunning. Suites:

* ``propagation``: on random LTV instances, the paper's non-recursive
  deviation sums (oracles built here from dense noise maps) against the
  O(K) recursion of ``error_analysis.linear_deviations``, the explicit
  control sum against the feedback identity udev = -L xdev, and the adjoint
  sensitivity form sum_s v_s . w_s of the first-order cost error against
  its evaluation on the deviation history.
* ``costerror``: the same reconstruction on 100 noise sequences drawn as
  one batch, plus zero-mean / Gaussianity statistics of the first-order
  cost error on the configured car policy, and its sample variance against
  the closed form sigma^2 sum_s |v_s|^2.
* ``riccati``: the scalar hand fixture and the LQR value identity.
* ``ldp``: exit-rate regression signature plus exact synthetic recovery and
  the zero action of the nominal path.

The random instances of the propagation and riccati suites are batched by
(n_x, n_u) family: every instance of a family shares one Riccati sweep,
front-padded with zeros to the family's longest horizon
(``_padded_riccati``). All of them use identity weights, the same at every
step, so an instance of horizon k finds its own gains and Riccati matrices
in the last k steps of the padded sweep, bit for bit. Every other batched
pass runs on one exact (n_x, n_u, K) shape, and every reported value is
the one a loop over single instances gives.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .dynamics import Array, NoiseModel
from .error_analysis import (
    cost_error_sensitivities,
    cost_error_statistics,
    first_order_cost_error,
    linear_deviations,
)
from .exceptions import ConfigError
from .experiments import PlannedExperiment, plan_experiment, run_exit_study
from .large_deviations import ExitEstimate, action_functional, fit_rate
from .lqr import LqrWeights, LtvSystem, closed_loop_matrices, riccati_backward
from .planner import CostLinearization, linearize_cost
from .simulate import _CTX_COST_ERROR, _CTX_RECONSTRUCTION, derive_seed, noise_scale

SUITE_NAMES = ("propagation", "costerror", "riccati", "ldp")

# Noise level and sample count of the costerror suite.
COST_ERROR_EPSILON = 0.05
COST_ERROR_SAMPLES = 100_000
# Noise sequences of the costerror suite's sensitivity-form reconstruction.
_RECONSTRUCTION_DRAWS = 100


@dataclass(frozen=True)
class Check:
    """One measured quantity against its bound."""

    name: str
    value: float
    bound: float
    op: str  # one of "<=", ">=", "<", ">"

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.value <= self.bound
        if self.op == ">=":
            return self.value >= self.bound
        if self.op == "<":
            return self.value < self.bound
        if self.op == ">":
            return self.value > self.bound
        raise ValueError(f"unknown comparator '{self.op}'")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "bound": self.bound,
            "op": self.op,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[Check, ...]
    details: dict | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.details is not None:
            out["details"] = self.details
        return out


def _random_ltv_arrays(
    rng: np.random.Generator, max_nx: int = 4, max_nu: int = 2, max_k: int = 20
) -> tuple[Array, Array]:
    """A (K, n, n) and B (K, n, m) of a random shape, entries uniform in [-1, 1]."""
    n_x = int(rng.integers(1, max_nx + 1))
    n_u = int(rng.integers(1, max_nu + 1))
    k = int(rng.integers(2, max_k + 1))
    a = rng.uniform(-1.0, 1.0, size=(k, n_x, n_x))
    b = rng.uniform(-1.0, 1.0, size=(k, n_x, n_u))
    return a, b


def random_ltv_instance(
    rng: np.random.Generator, max_nx: int = 4, max_nu: int = 2, max_k: int = 20
) -> tuple[LtvSystem, LqrWeights]:
    """Random LTV system (entries uniform in [-1, 1]) with identity weights."""
    sys = LtvSystem(*_random_ltv_arrays(rng, max_nx, max_nu, max_k))
    weights = LqrWeights.constant(np.ones(sys.state_dim), np.ones(sys.control_dim), sys.horizon)
    return sys, weights


def _noise_maps(d: Array) -> Array:
    """Oracle: dense noise maps M[s, t] = D_t ... D_{s+1}, shape (K, K, n, n).

    M[s, t] carries the noise injected at step s to the deviation at step
    t + 1; it is the identity for t = s and zero for t < s. A leading batch
    axis on d gives one table per instance, (N, K, K, n, n).
    """
    k, n = d.shape[-3], d.shape[-1]
    maps = np.zeros(d.shape[:-3] + (k, k, n, n))
    diagonal = np.arange(k)
    maps[..., diagonal, diagonal, :, :] = np.eye(n)
    for t in range(1, k):
        maps[..., :t, t, :, :] = d[..., t, None, :, :] @ maps[..., :t, t - 1, :, :]
    return maps


def _state_sums(maps: Array, noises: Array) -> Array:
    """Oracle: xdev_{t+1} = sum_{s <= t} M(s, t) w_s, as a (K+1, n) history."""
    states = np.zeros(noises.shape[:-2] + (noises.shape[-2] + 1, noises.shape[-1]))
    states[..., 1:, :] = np.einsum("...stij,...sj->...ti", maps, noises)
    return states


def _control_sums(maps: Array, gains: Array, noises: Array) -> Array:
    """Oracle: udev_{t+1} = -sum_{s <= t} L_{t+1} M(s, t) w_s, as a (K, m) history."""
    controls = np.zeros(noises.shape[:-1] + (gains.shape[-2],))
    controls[..., 1:, :] = -np.einsum(
        "...tmi,...stij,...sj->...tm", gains[..., 1:, :, :], maps[..., :, :-1, :, :], noises
    )
    return controls


def _padded_riccati(a: Sequence[Array], b: Sequence[Array]) -> tuple[Array, Array]:
    """One Riccati sweep for LTV systems of one (n_x, n_u) family and any horizons.

    Each (A, B) is front-padded with zeros to the family's longest horizon
    K_max, and all share identity weights. Returns the padded gains
    (N, K_max, m, n) and Riccati matrices (N, K_max+1, n, n); a system of
    horizon k finds its own results in ``[i, K_max - k:]``, bit for bit.
    Padding is exact because the weights are the same at every step: the
    last k steps of the padded recursion start from the same terminal
    weight and run that system's own steps, and each stacked matmul and
    solve acts row by row. A padded step has B = 0, so its gain system is
    W_u = I and never singular.
    """
    k_max = max(len(a_i) for a_i in a)
    n_x, n_u = b[0].shape[1:]
    a_pad = np.zeros((len(a), k_max, n_x, n_x))
    b_pad = np.zeros((len(b), k_max, n_x, n_u))
    for i, (a_i, b_i) in enumerate(zip(a, b)):
        a_pad[i, k_max - len(a_i) :] = a_i
        b_pad[i, k_max - len(b_i) :] = b_i
    weights = LqrWeights.constant(np.ones(n_x), np.ones(n_u), k_max)
    return riccati_backward(LtvSystem(a=a_pad, b=b_pad), weights)


def _max_reconstruction_rel(v: Array, noises: Array, direct: Array) -> float:
    """Max over a batch of |sum_s v_s . w_s - direct| / |direct| (denominator >= 1e-12)."""
    rebuilt = np.sum((v * noises).reshape(len(noises), -1), axis=1)
    return float((np.abs(rebuilt - direct) / np.maximum(np.abs(direct), 1e-12)).max())


def propagation_errors(n_instances: int = 1000, seed: int = 1001) -> dict:
    """Worst-case discrepancies over random LTV instances.

    Returns max relative error of the non-recursive state deviation against
    the recursion, max entrywise error of the explicit control sum against
    udev = -L xdev, and max relative error of the sensitivity-form
    cost-error reconstruction.

    Every instance is drawn first, in one fixed order. All instances of one
    (n_x, n_u) family share one Riccati sweep, front-padded to the family's
    longest horizon (``_padded_riccati``). The rest runs once per exact
    (n_x, n_u, K) shape: closed-loop matrices, deviations, noise maps, the
    oracle sums and the cost errors; padding these would change the length
    of their sums. Only the sensitivities run one instance at a time. Each
    row equals its single-instance computation bit for bit, and the maxima
    do not depend on order.
    """
    rng = np.random.default_rng(seed)
    families: dict[tuple[int, int], dict[int, list]] = {}
    for _ in range(n_instances):
        a, b = _random_ltv_arrays(rng)
        k, n_x, n_u = b.shape
        noises = rng.uniform(-1.0, 1.0, size=(k, n_x))
        cx = rng.uniform(-1.0, 1.0, size=(k, n_x))
        cu = rng.uniform(-1.0, 1.0, size=(k, n_u))
        cx_terminal = rng.uniform(-1.0, 1.0, size=n_x)
        shapes = families.setdefault((n_x, n_u), {})
        shapes.setdefault(k, []).append((a, b, noises, cx, cu, cx_terminal))

    max_state_rel = 0.0
    max_identity_abs = 0.0
    max_reconstruction_rel = 0.0
    for shapes in families.values():
        members = [m for group in shapes.values() for m in group]
        padded_gains, _ = _padded_riccati([m[0] for m in members], [m[1] for m in members])
        k_max, first = padded_gains.shape[1], 0
        for k, group in shapes.items():
            a, b, noises, cx, cu, cx_terminal = (np.stack(x) for x in zip(*group))
            # A contiguous copy, laid out like an unpadded sweep's gains: the
            # einsum passes below sum in memory order.
            gains = np.ascontiguousarray(padded_gains[first : first + len(group), k_max - k :])
            first += len(group)
            d = closed_loop_matrices(LtvSystem(a=a, b=b), gains)
            states, controls = linear_deviations(d, gains, noises)
            maps = _noise_maps(d)
            gap = np.linalg.norm(_state_sums(maps, noises)[:, 1:] - states[:, 1:], axis=-1)
            denom = np.maximum(np.linalg.norm(states[:, 1:], axis=-1), 1e-12)
            max_state_rel = max(max_state_rel, float((gap / denom).max()))
            resid = _control_sums(maps, gains, noises) - controls
            max_identity_abs = max(max_identity_abs, float(np.abs(resid).max()))
            lin = CostLinearization(cx=cx, cu=cu, cx_terminal=cx_terminal)
            v = np.stack(
                [
                    cost_error_sensitivities(CostLinearization(*row), d[i], gains[i])
                    for i, row in enumerate(zip(cx, cu, cx_terminal))
                ]
            )
            direct = first_order_cost_error(lin, states, controls)
            max_reconstruction_rel = max(
                max_reconstruction_rel, _max_reconstruction_rel(v, noises, direct)
            )
    return {
        "max_state_rel": max_state_rel,
        "max_identity_abs": max_identity_abs,
        "max_reconstruction_rel": max_reconstruction_rel,
    }


def propagation_suite(n_instances: int = 1000, seed: int = 1001) -> SuiteReport:
    errors = propagation_errors(n_instances, seed)
    checks = (
        Check("state_error_vs_recursive_rel", errors["max_state_rel"], 1e-9, "<="),
        Check("control_feedback_identity_abs", errors["max_identity_abs"], 1e-12, "<="),
        Check("coefficient_reconstruction_rel", errors["max_reconstruction_rel"], 1e-9, "<="),
    )
    return SuiteReport(suite="propagation", checks=checks)


def riccati_fixture_errors() -> tuple[float, float]:
    """Scalar A=B=Wx=Wu=1, K=2; exact values P=(1.6, 1.5, 1), L=(0.6, 0.5)."""
    sys = LtvSystem(a=np.ones((2, 1, 1)), b=np.ones((2, 1, 1)))
    weights = LqrWeights.constant([1.0], [1.0], 2)
    gains, riccati = riccati_backward(sys, weights)
    p_err = float(np.abs(riccati.ravel() - np.array([1.6, 1.5, 1.0])).max())
    l_err = float(np.abs(gains.ravel() - np.array([0.6, 0.5])).max())
    return p_err, l_err


def simulated_quadratic_cost(
    sys: LtvSystem, weights: LqrWeights, gains: Array, x0: Array
) -> float:
    """Accumulated tracking cost of the noise-free LTV error dynamics."""
    x = np.asarray(x0, dtype=float)
    total = 0.0
    for t in range(sys.horizon):
        u = -gains[t] @ x
        total += float(x @ weights.wx[t] @ x + u @ weights.wu[t] @ u)
        x = sys.a[t] @ x + sys.b[t] @ u
    total += float(x @ weights.wx[sys.horizon] @ x)
    return total


def value_identity_error(n_instances: int = 100, seed: int = 1002) -> float:
    """Max relative gap between x0' P_0 x0 and the simulated quadratic cost.

    Each (n_x, n_u) family of the drawn instances shares one front-padded
    Riccati sweep (``_padded_riccati``); an instance of horizon k reads its
    gains and P_0 from index K_max - k on, bit for bit those of its own sweep.
    """
    rng = np.random.default_rng(seed)
    families: dict[tuple[int, int], list] = {}
    for _ in range(n_instances):
        sys, weights = random_ltv_instance(rng)
        x0 = rng.uniform(-1.0, 1.0, size=sys.state_dim)
        families.setdefault((sys.state_dim, sys.control_dim), []).append((sys, weights, x0))
    worst = 0.0
    for members in families.values():
        gains, riccati = _padded_riccati([m[0].a for m in members], [m[0].b for m in members])
        k_max = gains.shape[1]
        for i, (sys, weights, x0) in enumerate(members):
            first = k_max - sys.horizon
            predicted = float(x0 @ riccati[i, first] @ x0)
            simulated = simulated_quadratic_cost(sys, weights, gains[i, first:], x0)
            worst = max(worst, abs(predicted - simulated) / max(abs(simulated), 1e-12))
    return worst


def riccati_suite(n_instances: int = 100, seed: int = 1002) -> SuiteReport:
    p_err, l_err = riccati_fixture_errors()
    checks = (
        Check("scalar_fixture_p_abs", p_err, 1e-12, "<="),
        Check("scalar_fixture_gain_abs", l_err, 1e-12, "<="),
        Check("value_identity_rel", value_identity_error(n_instances, seed), 1e-8, "<="),
    )
    return SuiteReport(suite="riccati", checks=checks)


def cost_error_suite(planned: PlannedExperiment) -> SuiteReport:
    policy, seed = planned.policy, planned.config.master_seed
    lin = linearize_cost(planned.cost, policy.nominal)
    v = cost_error_sensitivities(lin, policy.closed_loop, policy.gains)
    noise = NoiseModel(COST_ERROR_EPSILON, noise_scale(policy.nominal.controls), v.shape[1])

    # Direct evaluation through the deviation histories vs the sensitivity
    # form, on _RECONSTRUCTION_DRAWS noise sequences taken from one draw: a
    # generator yields the same numbers in one draw as in successive ones.
    rng = np.random.default_rng(derive_seed(seed, _CTX_RECONSTRUCTION))
    batch = (_RECONSTRUCTION_DRAWS,)
    noises = noise.sample(rng, _RECONSTRUCTION_DRAWS * len(v)).reshape(batch + v.shape)
    states, controls = linear_deviations(
        np.broadcast_to(policy.closed_loop, batch + policy.closed_loop.shape),
        np.broadcast_to(policy.gains, batch + policy.gains.shape),
        noises,
    )
    max_rel = _max_reconstruction_rel(v, noises, first_order_cost_error(lin, states, controls))

    stats = cost_error_statistics(
        policy, planned.cost, noise.epsilon, COST_ERROR_SAMPLES, derive_seed(seed, _CTX_COST_ERROR)
    )
    # All-zero planned controls give sigma = 0 and no closed form to compare
    # against; NaN then fails the check instead of dividing by zero.
    closed_form = noise.sigma**2 * float(np.sum(v * v))
    var_ratio_err = abs(stats.sd**2 / closed_form - 1.0) if closed_form > 0 else float("nan")
    checks = (
        Check("coefficient_reconstruction_rel", max_rel, 1e-9, "<="),
        Check("mean_z_score_abs", abs(stats.z), 4.0, "<="),
        Check("skewness_abs", abs(stats.skewness), 0.1, "<="),
        Check("excess_kurtosis_abs", abs(stats.kurtosis), 0.2, "<="),
        Check("variance_vs_closed_form_rel", var_ratio_err, 0.05, "<="),
    )
    return SuiteReport(suite="costerror", checks=checks, details=asdict(stats))


def synthetic_rate_recovery(a: float = 0.02) -> tuple[float, float]:
    """Fit error on exact p(eps) = exp(-a / eps^2) data."""
    estimates = [
        ExitEstimate(
            delta=1.0,
            epsilon=eps,
            n_runs=1,
            n_exits=0,
            p_hat=float(np.exp(-a / eps**2)),
            wilson_low=0.0,
            wilson_high=1.0,
        )
        for eps in (0.05, 0.1, 0.15)
    ]
    fit = fit_rate(estimates)
    return abs(fit.slope + a), abs(fit.r_squared - 1.0)


def ldp_suite(planned: PlannedExperiment) -> SuiteReport:
    slope_err, r2_err = synthetic_rate_recovery()
    nominal_action = action_functional(planned.policy, planned.policy.nominal.states, epsilon=0.1)
    estimates, fit = run_exit_study(planned)
    p_hats = [e.p_hat for e in estimates]
    checks = (
        Check("synthetic_slope_recovery_abs", slope_err, 1e-10, "<="),
        Check("synthetic_r2_recovery_abs", r2_err, 1e-10, "<="),
        Check("nominal_path_action", nominal_action, 0.0, "<="),
        Check("exit_p_hat_min", min(p_hats), 0.01, ">="),
        Check("exit_p_hat_max", max(p_hats), 0.9, "<="),
        Check("rate_fit_slope", fit.slope if fit else 0.0, 0.0, "<"),
        Check("rate_fit_r_squared", fit.r_squared if fit else 0.0, 0.8, ">="),
    )
    return SuiteReport(suite="ldp", checks=checks)


def run_suites(config, which: str) -> list[SuiteReport]:
    """Run one named suite or all of them for a given configuration."""
    if which != "all" and which not in SUITE_NAMES:
        choices = ", ".join(SUITE_NAMES + ("all",))
        raise ConfigError("--suite", f"unknown suite '{which}' (choose from {choices})")
    names = SUITE_NAMES if which == "all" else (which,)
    planned = None
    if {"costerror", "ldp"} & set(names):
        planned = plan_experiment(config)
    reports = []
    for name in names:
        if name == "propagation":
            reports.append(propagation_suite())
        elif name == "riccati":
            reports.append(riccati_suite())
        elif name == "costerror":
            reports.append(cost_error_suite(planned))
        elif name == "ldp":
            reports.append(ldp_suite(planned))
    return reports
