"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Statistical criteria run on the bundled reference configuration with its
pinned master seed, so the whole gate is deterministic.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from tlqr.cli import main
from tlqr.config import default_config
from tlqr.error_analysis import (
    cost_error_sensitivities,
    cost_error_statistics,
    first_order_cost_error,
    linear_deviations,
    linearize_cost,
)
from tlqr.experiments import run_exit_study
from tlqr.large_deviations import linear_fit
from tlqr.simulate import _CTX_COST_ERROR, _CTX_RECONSTRUCTION, derive_seed
from tlqr.verify import (
    propagation_errors,
    riccati_fixture_errors,
    synthetic_rate_recovery,
    value_identity_error,
)


def _ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties shared."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=float)
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx, ry = _ranks(x), _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    if denom == 0.0:
        return 0.0
    return float(np.sum(rx * ry) / denom)


def decay_rate_ratio(rows, eps_min: float = 0.02) -> float:
    """Relative convergence rate of the open-loop error curve vs closed loop.

    Both NMSE curves decay to zero with the same leading power of epsilon,
    so any slope of log NMSE against a function of epsilon is identical for
    the two modes; what distinguishes them is the multiplicative offset of
    the fitted decay curves. This returns that offset, estimated as the
    geometric mean of the per-epsilon closed/open NMSE ratios over rows with
    epsilon >= eps_min. Values below 1 mean the open-loop error approaches
    zero more slowly by that factor.
    """
    ratios = [
        r.avg_nmse_closed / r.avg_nmse_open
        for r in rows
        if r.epsilon >= eps_min
        and np.isfinite(r.avg_nmse_closed)
        and np.isfinite(r.avg_nmse_open)
        and r.avg_nmse_open > 0
    ]
    if not ratios:
        raise ValueError("no usable rows for the decay-rate ratio")
    return float(np.exp(np.mean(np.log(ratios))))


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def propagation_report():
    t0 = time.perf_counter()
    errors = propagation_errors(n_instances=1000, seed=1001)
    return errors, time.perf_counter() - t0


def test_criterion_1_state_error_oracle_equivalence(propagation_report):
    errors, seconds = propagation_report
    ok = errors["max_state_rel"] <= 1e-9 and seconds <= 10.0
    report(
        "1 state-error oracle equivalence",
        ok,
        f"max rel err {errors['max_state_rel']:.3e} <= 1e-9, {seconds:.1f}s <= 10s",
    )


def test_criterion_2_control_feedback_identity(propagation_report):
    errors, _ = propagation_report
    report(
        "2 control feedback identity",
        errors["max_identity_abs"] <= 1e-12,
        f"max abs residual {errors['max_identity_abs']:.3e} <= 1e-12",
    )


def test_criterion_3_cost_error_zero_mean_gaussian(car_experiment):
    planned, _ = car_experiment
    t0 = time.perf_counter()
    policy = planned.policy
    lin = linearize_cost(planned.cost, policy.nominal)
    v = cost_error_sensitivities(lin, policy.closed_loop, policy.gains)
    sigma = 0.05 * float(np.linalg.norm(policy.nominal.controls, axis=1).max())
    seed = planned.config.master_seed
    rng = np.random.default_rng(derive_seed(seed, _CTX_RECONSTRUCTION))
    max_rel = 0.0
    for _ in range(100):
        noises = sigma * rng.standard_normal((policy.horizon, 3))
        states, controls = linear_deviations(policy.closed_loop, policy.gains, noises)
        direct = first_order_cost_error(lin, states, controls)
        max_rel = max(max_rel, abs(float(np.sum(v * noises)) - direct) / max(abs(direct), 1e-12))

    stats = cost_error_statistics(v, sigma, 100_000, derive_seed(seed, _CTX_COST_ERROR))
    seconds = time.perf_counter() - t0
    mean_ok = abs(stats.mean) <= 4 * stats.sd / np.sqrt(stats.n)
    ok = (
        max_rel <= 1e-9
        and mean_ok
        and abs(stats.skewness) <= 0.1
        and abs(stats.kurtosis) <= 0.2
        and seconds <= 30.0
    )
    report(
        "3 first-order cost error zero-mean and Gaussian",
        ok,
        f"reconstruction {max_rel:.2e} <= 1e-9, |z|={abs(stats.z):.2f} <= 4, "
        f"|skew|={abs(stats.skewness):.3f} <= 0.1, |kurt|={abs(stats.kurtosis):.3f} <= 0.2, "
        f"{seconds:.1f}s <= 30s",
    )


def test_criterion_4_riccati_fixture_and_value_identity():
    p_err, l_err = riccati_fixture_errors()
    identity_err = value_identity_error(n_instances=100, seed=1002)
    ok = p_err <= 1e-12 and l_err <= 1e-12 and identity_err <= 1e-8
    report(
        "4 backward recursion fixture and value identity",
        ok,
        f"P err {p_err:.2e}, gain err {l_err:.2e} <= 1e-12, value identity {identity_err:.2e} <= 1e-8",
    )


def test_criterion_5_reference_planning(car_experiment):
    planned, seconds = car_experiment
    r = planned.report
    ok = (
        r.converged
        and r.terminal_position_error <= 0.05
        and r.terminal_heading_error <= 0.1
        and seconds <= 5.0
    )
    report(
        "5 reference planning reaches the goal",
        ok,
        f"converged={r.converged}, pos err {r.terminal_position_error:.4f}m <= 0.05, "
        f"heading err {r.terminal_heading_error:.4f}rad <= 0.1, {seconds:.1f}s <= 5s",
    )


def test_criterion_6_nmse_decay_trend(desk_sweep):
    rows, seconds = desk_sweep
    eps = np.array([r.epsilon for r in rows])
    closed = np.array([r.avg_nmse_closed for r in rows])
    rho = spearman(eps, closed)
    mask = eps <= 0.1 + 1e-12
    slope, _, _ = linear_fit(np.log(eps[mask]), np.log(closed[mask]))
    ok = (
        closed[0] < closed[-1]
        and rho >= 0.95
        and 1.5 <= slope <= 2.5
        and seconds <= 60.0
    )
    report(
        "6 closed-loop NMSE decay trend",
        ok,
        f"NMSE(0.01)={closed[0]:.3g} < NMSE(0.15)={closed[-1]:.3g}, spearman={rho:.3f} >= 0.95, "
        f"log-log slope {slope:.2f} in [1.5, 2.5], {seconds:.1f}s <= 60s",
    )


def test_criterion_7_closed_vs_open_ordering(desk_sweep):
    rows, _ = desk_sweep
    ordered = all(r.avg_nmse_closed <= r.avg_nmse_open for r in rows if r.epsilon >= 0.02)
    ratio = decay_rate_ratio(rows, eps_min=0.02)
    ok = ordered and ratio <= 0.8
    report(
        "7 closed-loop dominates open-loop",
        ok,
        f"ordering holds for eps >= 0.02: {ordered}, decay-rate ratio {ratio:.3f} <= 0.8",
    )


def test_criterion_8_exit_rate_signature(car_experiment):
    planned, _ = car_experiment
    slope_err, r2_err = synthetic_rate_recovery(a=0.02)
    estimates, fit = run_exit_study(planned)
    p_hats = [e.p_hat for e in estimates]
    from tlqr.large_deviations import action_functional

    nominal_action = action_functional(planned.policy, planned.policy.nominal.states, epsilon=0.05)
    ok = (
        slope_err <= 1e-10
        and r2_err <= 1e-10
        and min(p_hats) >= 0.01
        and max(p_hats) <= 0.9
        and fit is not None
        and fit.slope < 0
        and fit.r_squared >= 0.8
        and nominal_action == 0.0
    )
    report(
        "8 exponential exit-rate signature",
        ok,
        f"synthetic recovery {slope_err:.1e} <= 1e-10, p_hat range "
        f"[{min(p_hats):.3f}, {max(p_hats):.3f}] in [0.01, 0.9], slope {fit.slope:.4f} < 0, "
        f"r2 {fit.r_squared:.3f} >= 0.8, nominal action {nominal_action}",
    )


def test_criterion_9_artifact_determinism(tmp_path):
    data = default_config().to_dict()
    data["sweep"] = {"eps_start": 0.03, "eps_step": 0.03, "eps_end": 0.09, "n_runs": 10}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")

    def artifacts(outdir):
        return {
            p.name: p.read_bytes()
            for p in sorted(Path(outdir).iterdir())
            if p.name != "manifest.json"
        }

    codes = [
        main(["plan", "--config", str(config_path), "--out", str(tmp_path / "p1")]),
        main(["plan", "--config", str(config_path), "--out", str(tmp_path / "p2")]),
        main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "s1")]),
        main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "s2")]),
        main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "s3")]),
    ]
    plan_same = artifacts(tmp_path / "p1") == artifacts(tmp_path / "p2")
    sweep_same = (
        artifacts(tmp_path / "s1") == artifacts(tmp_path / "s2") == artifacts(tmp_path / "s3")
    )
    ok = all(c == 0 for c in codes) and plan_same and sweep_same
    report(
        "9 byte-identical artifacts",
        ok,
        f"exit codes {codes}, plan identical: {plan_same}, "
        f"sweep identical across runs: {sweep_same}",
    )
