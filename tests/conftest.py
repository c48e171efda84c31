import time

import pytest

from tlqr import default_config, plan_experiment, run_sweep


@pytest.fixture(scope="session")
def car_experiment():
    """Planned reference car experiment, with the planning wall time."""
    t0 = time.perf_counter()
    planned = plan_experiment(default_config())
    return planned, time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk_sweep(car_experiment):
    """Full desk-grid sweep rows (15 epsilons x 100 runs), with its wall time."""
    planned, _ = car_experiment
    t0 = time.perf_counter()
    rows = run_sweep(planned)
    return rows, time.perf_counter() - t0
