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

The propagation and riccati suites read their random LTV instances from
one stream of front-padded batches (``_padded_batches``): each O(K)
recursion runs once per batch, and every reported value is bit for bit the
one a loop over single instances gives.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import groupby
from typing import Callable, Iterator, Sequence

import numpy as np

from .dynamics import Array
from .error_analysis import (
    CostLinearization,
    cost_error_sensitivities,
    cost_error_statistics,
    first_order_cost_error,
    linear_deviations,
    linearize_cost,
)
from .exceptions import ConfigError
from .experiments import PlannedExperiment, RunStats, plan_experiment, run_exit_study
from .large_deviations import action_functional, fit_rate
from .lqr import LqrWeights, LtvSystem, closed_loop_matrices, riccati_backward
from .simulate import _CTX_COST_ERROR, _CTX_RECONSTRUCTION, derive_seed, noise_sigma

SUITE_NAMES = ("propagation", "costerror", "riccati", "ldp")

# Noise level and sample count of the costerror suite.
COST_ERROR_EPSILON = 0.05
COST_ERROR_SAMPLES = 100_000
# Noise sequences of the costerror suite's sensitivity-form reconstruction.
_RECONSTRUCTION_DRAWS = 100
# Instances per front-padded batch of the propagation and riccati suites. A
# batch runs each O(K) recursion once, so larger batches take fewer
# Python-level steps, but they hold more padded rows at once: whole families
# raise the propagation suite's traced peak from 1.78 to 2.91 MiB.
PADDED_BATCH = 64


@dataclass(frozen=True)
class Check:
    """One measured quantity against its bound."""

    name: str
    value: float
    bound: float
    op: str  # one of "<=", ">=", "<"

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.value <= self.bound
        if self.op == ">=":
            return self.value >= self.bound
        if self.op == "<":
            return self.value < self.bound
        raise ValueError(f"unknown comparator '{self.op}'")

    def as_dict(self) -> dict:
        """The check as JSON values: a value that is not finite, such as NaN, is null."""
        return {
            "name": self.name,
            "value": self.value if math.isfinite(self.value) else None,
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


def _propagation_shapes(n_x: int, n_u: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Arrays of one propagation instance, in draw order: A, B, noises, cx, cu, cx_K."""
    return (k, n_x, n_x), (k, n_x, n_u), (k, n_x), (k, n_x), (k, n_u), (n_x,)


def _riccati_shapes(n_x: int, n_u: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Arrays of one value-identity instance, in draw order: A, B, x0."""
    return (k, n_x, n_x), (k, n_x, n_u), (n_x,)


def _draw_instance(
    rng: np.random.Generator, shapes: Callable[[int, int, int], Sequence[tuple[int, ...]]]
) -> tuple[tuple[int, int, int], Array]:
    """One random LTV instance: its (n_x, n_u, K) and one flat row of all its entries.

    n_x in [1, 4], n_u in [1, 2] and K in [2, 20] come first, then every
    entry of the arrays ``shapes(n_x, n_u, K)`` lists, uniform in [-1, 1],
    in one draw: a generator yields the same doubles in one call as in one
    call per array, so the row holds those arrays back to back.
    """
    dims = (int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(2, 21)))
    return dims, rng.uniform(-1.0, 1.0, size=sum(math.prod(s) for s in shapes(*dims)))


def _split_rows(rows: Array, shapes: Sequence[tuple[int, ...]]) -> list[Array]:
    """C-contiguous arrays, one per shape, cut from the flat rows (..., size) in order."""
    arrays, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        arrays.append(np.ascontiguousarray(rows[..., start:stop]).reshape(rows.shape[:-1] + shape))
        start = stop
    return arrays


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


def _front_pad(runs: Sequence[Array], k_max: int) -> Array:
    """Runs of instances stacked into one (N, k_max, ...) array, zeros in front.

    Each run is an (N_j, k_j, ...) stack of N_j instances of one horizon k_j;
    its rows follow the previous run's, each in its last k_j steps.
    """
    out = np.zeros((sum(len(run) for run in runs), k_max) + runs[0].shape[2:])
    first = 0
    for run in runs:
        out[first : first + len(run), k_max - run.shape[1] :] = run
        first += len(run)
    return out


def _padded_batches(
    shapes: Callable[[int, int, int], Sequence[tuple[int, ...]]], n_instances: int, seed: int
) -> Iterator[tuple[list[Array], list[int]]]:
    """Random LTV instances as front-padded batches of one (n_x, n_u) family.

    Every instance is drawn first, in one fixed order (``_draw_instance``).
    The families then come in ascending order, so the largest working set
    comes last, when every other family's rows are gone. A family's
    instances are sorted by horizon, draw order kept within one, and cut
    into batches of at most ``PADDED_BATCH``. Yields per batch its ascending
    horizons and one stack per array ``shapes`` lists: an array of more than
    one axis has the time axis first and is front-padded with zeros to the
    batch's longest horizon K_b (``_front_pad``), and an instance of horizon
    k holds its own steps in the last k.

    Under identity weights a padded step has A = B = 0, so its gain system
    is W_u = I and never singular, and its gain, closed-loop matrix, noise
    and forcing are 0. The backward sweeps therefore reach an instance's
    last k steps from its own terminal values, a forward recursion stays at
    its start until the instance's first step, and each stacked product acts
    item by item: every recursion's cut from step K_b - k on is bit for bit
    the instance's own unpadded call. The passes whose sums padding would
    lengthen (the noise maps, the oracle sums and the cost errors) must run
    on those cuts instead.
    """
    rng = np.random.default_rng(seed)
    families: dict[tuple[int, int], list[tuple[int, Array]]] = {}
    for _ in range(n_instances):
        (n_x, n_u, k), row = _draw_instance(rng, shapes)
        families.setdefault((n_x, n_u), []).append((k, row))
    for n_x, n_u in sorted(families):
        members = sorted(families.pop((n_x, n_u)), key=lambda member: member[0])
        while members:
            batch, members = members[:PADDED_BATCH], members[PADDED_BATCH:]
            horizons = [k for k, _ in batch]
            runs = [
                _split_rows(np.stack([row for _, row in run]), shapes(n_x, n_u, k))
                for k, run in groupby(batch, key=lambda member: member[0])
            ]
            del batch
            yield [
                _front_pad(stack, horizons[-1]) if stack[0].ndim > 2 else np.concatenate(stack)
                for stack in zip(*runs)
            ], horizons


def _identity_riccati(a: Array, b: Array) -> tuple[Array, Array]:
    """``riccati_backward`` on an (N, K, ...) stack of systems with identity weights."""
    n_x, n_u = b.shape[-2:]
    return riccati_backward(LtvSystem(a=a, b=b), LqrWeights(np.ones(n_x), np.ones(n_u)))


def _max_reconstruction_rel(v: Array, noises: Array, direct: Array) -> float:
    """Max over a batch of |sum_s v_s . w_s - direct| / |direct| (denominator >= 1e-12)."""
    rebuilt = np.sum((v * noises).reshape(len(noises), -1), axis=1)
    return float((np.abs(rebuilt - direct) / np.maximum(np.abs(direct), 1e-12)).max())


def propagation_errors(n_instances: int = 1000, seed: int = 1001) -> dict:
    """Worst-case discrepancies over random LTV instances.

    Returns max relative error of the non-recursive state deviation against
    the recursion, max entrywise error of the explicit control sum against
    udev = -L xdev, and max relative error of the sensitivity-form
    cost-error reconstruction; a NaN anywhere makes its maximum NaN.

    The Riccati sweep, closed-loop matrices, deviations and cost-error
    sensitivities run once per front-padded batch (``_padded_batches``). The
    noise maps, oracle sums and cost errors run once per horizon of a batch,
    on its instances' cuts of those results, so each row equals its
    single-instance computation bit for bit.
    """
    worst = np.zeros(3)
    batches = _padded_batches(_propagation_shapes, n_instances, seed)
    for (a, b, noises, cx, cu, cx_terminal), horizons in batches:
        gains = _identity_riccati(a, b)[0]
        d = closed_loop_matrices(LtvSystem(a=a, b=b), gains)
        del a, b
        states, controls = linear_deviations(d, gains, noises)
        lin = CostLinearization(cx=cx, cu=cu, cx_terminal=cx_terminal)
        v = cost_error_sensitivities(lin, d, gains)
        first = 0
        for k, run in groupby(horizons):
            rows, start = slice(first, first + len(list(run))), horizons[-1] - k
            first = rows.stop
            d_k, v_k = d[rows, start:], v[rows, start:]
            # The other cuts go as contiguous copies, laid out like an
            # unpadded call's: the oracles' einsum passes sum in memory order.
            gains_k, noises_k, cx_k, cu_k, states_k, controls_k = (
                np.ascontiguousarray(x[rows, start:])
                for x in (gains, noises, cx, cu, states, controls)
            )
            maps = _noise_maps(d_k)
            gap = np.linalg.norm(_state_sums(maps, noises_k)[:, 1:] - states_k[:, 1:], axis=-1)
            denom = np.maximum(np.linalg.norm(states_k[:, 1:], axis=-1), 1e-12)
            resid = _control_sums(maps, gains_k, noises_k) - controls_k
            lin = CostLinearization(cx=cx_k, cu=cu_k, cx_terminal=cx_terminal[rows])
            direct = first_order_cost_error(lin, states_k, controls_k)
            worst = np.maximum(
                worst,
                [
                    (gap / denom).max(),
                    np.abs(resid).max(),
                    _max_reconstruction_rel(v_k, noises_k, direct),
                ],
            )
    state_rel, identity_abs, reconstruction_rel = map(float, worst)
    return {
        "max_state_rel": state_rel,
        "max_identity_abs": identity_abs,
        "max_reconstruction_rel": reconstruction_rel,
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
    weights = LqrWeights([1.0], [1.0])
    gains, riccati = riccati_backward(sys, weights)
    p_err = float(np.abs(riccati.ravel() - np.array([1.6, 1.5, 1.0])).max())
    l_err = float(np.abs(gains.ravel() - np.array([0.6, 0.5])).max())
    return p_err, l_err


def simulated_quadratic_cost(
    sys: LtvSystem,
    weights: LqrWeights,
    gains: Array,
    x0: Array,
    horizons: Sequence[int] | None = None,
) -> float | Array:
    """Accumulated tracking cost of the noise-free LTV error dynamics.

    One system (K, ...) with its (K, m, n) gains and an (n,) start gives a
    float. A batch front-padded to K steps, (N, K, ...) with (N, n) starts,
    takes each instance's own horizon, in ascending order (all K when
    omitted), and gives the (N,) totals: the instances running at step t
    are the last ones, those of horizon at least K - t. Before its first
    step an instance's state stays at x0 and its total gains nothing. Every
    product is a matmul on stacks of columns, which acts item by item as on
    one instance, so each total is bit for bit its own single call's.
    """
    wx, wu = np.diag(weights.wx), np.diag(weights.wu)
    single = np.ndim(x0) == 1
    a, b, gains = (x[None] if single else x for x in (sys.a, sys.b, np.asarray(gains, float)))
    k = a.shape[1]
    horizons = np.full(len(a), k) if horizons is None else np.asarray(horizons)
    if (np.diff(horizons) < 0).any():
        raise ValueError("horizons must be in ascending order")
    x = np.array(x0, dtype=float).reshape(len(a), -1, 1)
    total = np.zeros(len(a))
    for t in range(k):
        live = slice(int(np.searchsorted(horizons, k - t)), None)
        x_t = x[live]
        u = -gains[live, t] @ x_t
        stage = np.swapaxes(x_t, 1, 2) @ wx @ x_t + np.swapaxes(u, 1, 2) @ wu @ u
        total[live] += stage[:, 0, 0]
        x[live] = a[live, t] @ x_t + b[live, t] @ u
    total += (np.swapaxes(x, 1, 2) @ wx @ x)[:, 0, 0]
    return float(total[0]) if single else total


def value_identity_error(n_instances: int = 100, seed: int = 1002) -> float:
    """Max relative gap between x0' P_0 x0 and the simulated quadratic cost.

    Each front-padded batch (``_padded_batches``) runs one Riccati sweep and
    one simulation; an instance of horizon k reads its P_0 at step K_b - k.
    Every value is bit for bit its instance's own sweep and simulation, and
    a NaN makes the maximum NaN.
    """
    worst = 0.0
    for (a, b, x0), horizons in _padded_batches(_riccati_shapes, n_instances, seed):
        gains, riccati = _identity_riccati(a, b)
        p0 = riccati[np.arange(len(x0)), horizons[-1] - np.asarray(horizons)]
        predicted = (x0[:, None, :] @ p0 @ x0[:, :, None])[:, 0, 0]
        weights = LqrWeights(np.ones(a.shape[-1]), np.ones(b.shape[-1]))
        simulated = simulated_quadratic_cost(LtvSystem(a=a, b=b), weights, gains, x0, horizons)
        gaps = np.abs(predicted - simulated) / np.maximum(np.abs(simulated), 1e-12)
        worst = np.maximum(worst, gaps.max())
    return float(worst)


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
    sigma = noise_sigma(policy, COST_ERROR_EPSILON)

    # Direct evaluation through the deviation histories vs the sensitivity
    # form, on _RECONSTRUCTION_DRAWS noise sequences taken from one draw: a
    # generator yields the same numbers in one draw as in successive ones.
    rng = np.random.default_rng(derive_seed(seed, _CTX_RECONSTRUCTION))
    batch = (_RECONSTRUCTION_DRAWS,)
    noises = sigma * rng.standard_normal(batch + v.shape)
    states, controls = linear_deviations(
        np.broadcast_to(policy.closed_loop, batch + policy.closed_loop.shape),
        np.broadcast_to(policy.gains, batch + policy.gains.shape),
        noises,
    )
    max_rel = _max_reconstruction_rel(v, noises, first_order_cost_error(lin, states, controls))

    stats = cost_error_statistics(v, sigma, COST_ERROR_SAMPLES, derive_seed(seed, _CTX_COST_ERROR))
    # All-zero planned controls give sigma = 0 and no closed form to compare
    # against; NaN then fails the check instead of dividing by zero.
    closed_form = sigma**2 * float(np.sum(v * v))
    var_ratio_err = abs(stats.sd**2 / closed_form - 1.0) if closed_form > 0 else float("nan")
    checks = (
        Check("coefficient_reconstruction_rel", max_rel, 1e-9, "<="),
        Check("mean_z_score_abs", abs(stats.z), 4.0, "<="),
        Check("skewness_abs", abs(stats.skewness), 0.1, "<="),
        Check("excess_kurtosis_abs", abs(stats.kurtosis), 0.2, "<="),
        Check("variance_vs_closed_form_rel", var_ratio_err, 0.05, "<="),
    )
    details = {**asdict(stats), "epsilon": COST_ERROR_EPSILON}
    return SuiteReport(suite="costerror", checks=checks, details=details)


def synthetic_rate_recovery(a: float = 0.02) -> tuple[float, float]:
    """Fit error on exact p(eps) = exp(-a / eps^2) data."""
    epsilons = (0.05, 0.1, 0.15)
    fit = fit_rate(epsilons, [float(np.exp(-a / eps**2)) for eps in epsilons])
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


def run_suites(
    config, which: str, stats: RunStats | None = None
) -> tuple[list[SuiteReport], PlannedExperiment | None]:
    """Run one named suite or all of them for a given configuration.

    Returns the suites' reports and the plan they verified, or None when no
    selected suite needs one (only ``costerror`` and ``ldp`` do). With
    ``stats``, records the plan and one stage per suite.
    """
    if which != "all" and which not in SUITE_NAMES:
        choices = ", ".join(SUITE_NAMES + ("all",))
        raise ConfigError("--suite", f"unknown suite '{which}' (choose from {choices})")
    stats = RunStats() if stats is None else stats
    names = SUITE_NAMES if which == "all" else (which,)
    planned = None
    if {"costerror", "ldp"} & set(names):
        planned = plan_experiment(config, stats)
    reports = []
    for name in names:
        with stats.stage(name):
            if name == "propagation":
                reports.append(propagation_suite())
            elif name == "riccati":
                reports.append(riccati_suite())
            elif name == "costerror":
                reports.append(cost_error_suite(planned))
            elif name == "ldp":
                reports.append(ldp_suite(planned))
    return reports, planned
