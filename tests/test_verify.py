import tracemalloc

import pytest

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


@pytest.mark.parametrize(
    ("suite", "bound_mib"),
    [("propagation", 2.2), ("costerror", 1.9), ("ldp", 2.1), ("riccati", 0.3)],
)
def test_suite_traced_peak_stays_bounded(car_experiment, suite, bound_mib):
    # Each suite's peak is its own working set: the propagation families run
    # smallest first with the drawn rows dropped once split, the moments reuse
    # one scratch array, the exit deviation is taken in place and the riccati
    # suite simulates each family as one padded batch. The bounds are about
    # 12% above the peaks measured when each was set (1.94, 1.66, 1.84 and
    # 0.27 MiB); the propagation suite's padded batches now peak at 1.74 MiB.
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
