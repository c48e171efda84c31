import tracemalloc

import numpy as np
import pytest

import tlqr.verify as verify
from tlqr.verify import Check, cost_error_suite, ldp_suite, propagation_suite, riccati_suite

# The printed check names, in order, are part of the `tlqr verify` output
# contract: scripts that read the report match on them.
CHECK_NAMES = [
    "propagation.state_error_vs_recursive_rel",
    "propagation.control_feedback_identity_abs",
    "propagation.coefficient_reconstruction_rel",
    "costerror.coefficient_reconstruction_rel",
    "costerror.mean_z_score_abs",
    "costerror.skewness_abs",
    "costerror.excess_kurtosis_abs",
    "costerror.variance_vs_closed_form_rel",
    "riccati.scalar_fixture_p_abs",
    "riccati.scalar_fixture_gain_abs",
    "riccati.value_identity_rel",
    "ldp.synthetic_slope_recovery_abs",
    "ldp.synthetic_r2_recovery_abs",
    "ldp.nominal_path_action",
    "ldp.exit_p_hat_min",
    "ldp.exit_p_hat_max",
    "ldp.rate_fit_slope",
    "ldp.rate_fit_r_squared",
]


def test_check_names_in_printed_order_and_all_pass(car_experiment):
    planned, _ = car_experiment
    reports = [
        propagation_suite(n_instances=10),
        cost_error_suite(planned),
        riccati_suite(n_instances=5),
        ldp_suite(planned),
    ]
    checks = [(f"{r.suite}.{c.name}", c) for r in reports for c in r.checks]
    assert [name for name, _ in checks] == CHECK_NAMES
    failed = [(name, c.value, c.op, c.bound) for name, c in checks if not c.passed]
    assert failed == []


def test_check_comparators_and_unknown_ops():
    assert [Check("c", 1.0, 1.0, op).passed for op in ("<=", ">=", "<")] == [True, True, False]
    for op in (">", "=="):
        with pytest.raises(ValueError, match="comparator"):
            Check("c", 1.0, 1.0, op).passed


def test_nan_results_fail_the_worst_case_checks(monkeypatch):
    # A worst case over instances keeps a NaN: it fails its check and is
    # written as null, never folded away as a maximum of 0.0.
    original = verify.linear_deviations

    def nan_deviations(d, gains, noises):
        return tuple(np.full_like(x, np.nan) for x in original(d, gains, noises))

    def nan_costs(a, b, weights, gains, x0, horizons=None):
        return np.full(len(x0), np.nan)

    monkeypatch.setattr(verify, "linear_deviations", nan_deviations)
    monkeypatch.setattr(verify, "simulated_quadratic_cost", nan_costs)
    reports = [propagation_suite(n_instances=20), riccati_suite(n_instances=20)]
    values = {f"{r.suite}.{c.name}": c.as_dict() for r in reports for c in r.checks}
    planted = [
        "propagation.state_error_vs_recursive_rel",
        "propagation.control_feedback_identity_abs",
        "propagation.coefficient_reconstruction_rel",
        "riccati.value_identity_rel",
    ]
    assert [name for name, c in values.items() if not c["passed"]] == planted
    assert all(values[name]["value"] is None for name in planted)


@pytest.mark.parametrize(
    ("suite", "bound_mib"),
    [("propagation", 2.2), ("costerror", 1.9), ("ldp", 2.1), ("riccati", 0.3)],
)
def test_suite_traced_peak_stays_bounded(car_experiment, suite, bound_mib):
    # Each suite's peak is its own working set: the propagation and riccati
    # suites read front-padded batches of at most 64 instances, smallest
    # family first, each batch's drawn rows dropped once split; the moments
    # reuse one scratch array and the exit deviation is taken in place. The
    # bounds are about 12% above the peaks measured when each was set (1.94,
    # 1.66, 1.84 and 0.27 MiB); the two suites' shared batches now peak at
    # 1.78 and 0.19 MiB.
    planned, _ = car_experiment
    run = {
        "propagation": propagation_suite,
        "riccati": riccati_suite,
        "costerror": lambda: cost_error_suite(planned),
        "ldp": lambda: ldp_suite(planned),
    }[suite]
    run()  # warm, so that one-off imports and caches are not counted
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, f"{suite} peaked at {peak / 2**20:.3f} MiB"
