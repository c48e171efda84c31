import time

import numpy as np
import pytest

from tlqr import LqrWeights, LtvSystem, default_config, plan_experiment, run_sweep
from tlqr.simulate import _seed_words, _seeded_states
from tlqr.verify import _random_ltv_arrays


def seeded_states(policy, epsilon, mode, seeds):
    """Kernel states of the runs seeded by ``seeds``, drawn and stepped as the sweep does."""
    return _seeded_states(policy, epsilon, mode, _seed_words(seeds))


def random_ltv_instance(rng, max_nx=4, max_nu=2, max_k=20):
    """Random LTV system (entries uniform in [-1, 1], as verify draws them) with identity weights."""
    sys = LtvSystem(*_random_ltv_arrays(rng, max_nx, max_nu, max_k))
    weights = LqrWeights(np.ones(sys.state_dim), np.ones(sys.control_dim))
    return sys, weights


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
