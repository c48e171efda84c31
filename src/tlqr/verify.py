"""Property-verification suites with explicit tolerances.

Each suite runs a set of named checks and reports the measured value next
to its bound, so a report is reviewable without rerunning. Suites:

* ``propagation``: on random LTV instances, batched by shape, the paper's
  non-recursive deviation sums (oracles built here from dense noise maps)
  against the O(K) recursion of ``error_analysis.linear_deviations``, the
  explicit control sum against the feedback identity udev = -L xdev, and the
  adjoint sensitivity form sum_s v_s . w_s of the first-order cost error
  against its evaluation on the deviation history.
* ``costerror``: the same reconstruction plus zero-mean / Gaussianity
  statistics of the first-order cost error on the configured car policy,
  and its sample variance against the closed form sigma^2 sum_s |v_s|^2.
* ``riccati``: the scalar hand fixture and the LQR value identity.
* ``ldp``: exit-rate regression signature plus exact synthetic recovery and
  the zero action of the nominal path.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

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


def propagation_errors(n_instances: int = 1000, seed: int = 1001) -> dict:
    """Worst-case discrepancies over random LTV instances.

    Returns max relative error of the non-recursive state deviation against
    the recursion, max entrywise error of the explicit control sum against
    udev = -L xdev, and max relative error of the sensitivity-form
    cost-error reconstruction.

    Every instance is drawn first, in one fixed order; instances of one
    (n_x, n_u, K) shape then share one batched Riccati, deviation and
    noise-map pass. Each row equals its single-instance computation bit for
    bit, and the maxima do not depend on order.
    """
    rng = np.random.default_rng(seed)
    groups: dict[tuple[int, int, int], list] = {}
    for _ in range(n_instances):
        a, b = _random_ltv_arrays(rng)
        k, n_x, n_u = b.shape
        noises = rng.uniform(-1.0, 1.0, size=(k, n_x))
        lin = CostLinearization(
            cx=rng.uniform(-1.0, 1.0, size=(k, n_x)),
            cu=rng.uniform(-1.0, 1.0, size=(k, n_u)),
            cx_terminal=rng.uniform(-1.0, 1.0, size=n_x),
        )
        groups.setdefault((n_x, n_u, k), []).append((a, b, noises, lin))

    max_state_rel = 0.0
    max_identity_abs = 0.0
    max_reconstruction_rel = 0.0
    for (n_x, n_u, k), members in groups.items():
        a, b, noises, lins = zip(*members)
        sys = LtvSystem(a=np.stack(a), b=np.stack(b))
        noises = np.stack(noises)
        gains, _ = riccati_backward(sys, LqrWeights.constant(np.ones(n_x), np.ones(n_u), k))
        d = closed_loop_matrices(sys, gains)
        states, controls = linear_deviations(d, gains, noises)
        maps = _noise_maps(d)
        gap = np.linalg.norm(_state_sums(maps, noises)[:, 1:] - states[:, 1:], axis=-1)
        denom = np.maximum(np.linalg.norm(states[:, 1:], axis=-1), 1e-12)
        max_state_rel = max(max_state_rel, float((gap / denom).max()))
        resid = _control_sums(maps, gains, noises) - controls
        max_identity_abs = max(max_identity_abs, float(np.abs(resid).max()))
        for i, lin in enumerate(lins):
            v = cost_error_sensitivities(lin, d[i], gains[i])
            direct_value = first_order_cost_error(lin, states[i], controls[i])
            rebuilt = float(np.sum(v * noises[i]))
            denom = max(abs(direct_value), 1e-12)
            max_reconstruction_rel = max(
                max_reconstruction_rel, abs(rebuilt - direct_value) / denom
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
    """Max relative gap between x0' P_0 x0 and the simulated quadratic cost."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        sys, weights = random_ltv_instance(rng)
        gains, riccati = riccati_backward(sys, weights)
        x0 = rng.uniform(-1.0, 1.0, size=sys.state_dim)
        predicted = float(x0 @ riccati[0] @ x0)
        simulated = simulated_quadratic_cost(sys, weights, gains, x0)
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

    # Direct evaluation through the deviation histories vs the sensitivity form.
    rng = np.random.default_rng(derive_seed(seed, _CTX_RECONSTRUCTION))
    max_rel = 0.0
    for _ in range(100):
        noises = noise.sample(rng, len(v))
        direct = first_order_cost_error(
            lin, *linear_deviations(policy.closed_loop, policy.gains, noises)
        )
        rebuilt = float(np.sum(v * noises))
        max_rel = max(max_rel, abs(rebuilt - direct) / max(abs(direct), 1e-12))

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
