import importlib.util
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import tlqr.verify as verify
from tlqr.config import default_config, epsilon_grid
from tlqr.dynamics import NominalTrajectory
from tlqr.error_analysis import adjoint_sweep
from tlqr.experiments import plan_experiment
from tlqr.lqr import LqrWeights, LtvSystem
from tlqr.simulate import _seed_words, _standard_normals, rollout_states, sweep_epsilon

# The generator and reader of tests/data/pins.json, every exact pin.
_PINS_SCRIPT = Path(__file__).parent / "data" / "make_pins.py"
_spec = importlib.util.spec_from_file_location("make_pins", _PINS_SCRIPT)
make_pins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_pins)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Unbounded plant x_{t+1} = A x_t + B u_t with the car's surface (``test_plant_interface``)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_2d(np.asarray(self.a, dtype=float)))
        object.__setattr__(self, "b", np.atleast_2d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "state_dim", self.a.shape[0])
        object.__setattr__(self, "control_dim", self.b.shape[1])

    def step_rows(self, x, u, out):
        np.matmul(self.a, x, out=out)
        out += self.b @ u
        return out

    def transition_jacobians(self, x, u, terms=None):
        reps = np.shape(x)[:-1] + (1, 1)
        return np.tile(self.a, reps), np.tile(self.b, reps)

    def open_loop_rollout(self, x0, controls):
        """States of the stepwise loop; a linear step leaves no terms for the Jacobians."""
        states = np.empty((len(controls) + 1, self.state_dim))
        states[0] = x0
        for t, u in enumerate(np.asarray(controls, dtype=float)):
            self.step_rows(states[t][:, None], u[:, None], states[t + 1][:, None])
        return states, None

    def costates(self, terminal, a):
        return adjoint_sweep(terminal, None, a)

    def rollout_nominal(self, x0, controls):
        controls = np.asarray(controls, dtype=float)
        return NominalTrajectory(states=self.open_loop_rollout(x0, controls)[0], controls=controls)

    def clamp_rows(self, u):
        return u

    def validate_control(self, u):
        pass

    def control_bounds(self):
        return np.full(self.control_dim, np.inf)


def config_sweep(planned, grid=None):
    """``tlqr sweep``'s rows of both modes, on ``grid`` or else on the configured grid."""
    cfg, seed = planned.config.sweep, planned.config.master_seed
    if grid is None:
        grid = epsilon_grid(cfg.eps_start, cfg.eps_step, cfg.eps_end)
    return sweep_epsilon(planned.policy, grid, cfg.n_runs, seed)


def seeded_states(policy, epsilon, mode, seeds):
    """Kernel states of the runs seeded by ``seeds``, drawn and stepped as ``seeded_runs`` does."""
    states = np.empty((len(seeds), policy.horizon + 1, policy.model.state_dim))
    _standard_normals(_seed_words(np.array(seeds, dtype=np.uint64)), states[:, 1:])
    rollout_states(policy, epsilon, mode, states)
    return states


def random_ltv_instance(rng, max_nx=4, max_nu=2, max_k=20):
    """Random LTV system, entries uniform in [-1, 1], with identity weights.

    Draws n_x, n_u and K, then A and B one call each. With the default
    bounds these are verify's instances, which it draws in one call per
    instance, so the tests' per-instance references built on this draw
    check that stream independently.
    """
    n_x = int(rng.integers(1, max_nx + 1))
    n_u = int(rng.integers(1, max_nu + 1))
    k = int(rng.integers(2, max_k + 1))
    sys = LtvSystem(
        a=rng.uniform(-1.0, 1.0, size=(k, n_x, n_x)), b=rng.uniform(-1.0, 1.0, size=(k, n_x, n_u))
    )
    weights = LqrWeights(np.ones(sys.state_dim), np.ones(sys.control_dim))
    return sys, weights


def padded_batch_members(shapes, n_instances, seed):
    """``verify._padded_batches``, each batch with its instances' own unpadded arrays.

    Yields (arrays, horizons, members), members being the arrays of each
    instance as ``_draw_instance`` drew them, and checks the batch rule on
    the way: the batches hold every instance once, the (n_x, n_u) families
    in ascending order and each by horizon, draw order kept within one; a
    batch holds at most ``PADDED_BATCH`` instances, and only a family's last
    one fewer; and a stack holds each instance's own entries, its time-axis
    arrays in the last k steps after +0.0 padding.
    """
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(n_instances):
        dims, row = verify._draw_instance(rng, shapes)
        drawn.append((dims, verify._split_rows(row, shapes(*dims))))
    expected = iter(sorted(drawn, key=lambda instance: instance[0]))
    sizes = []
    for arrays, horizons in verify._padded_batches(shapes, n_instances, seed):
        members = [next(expected) for _ in horizons]
        family = members[0][0][:2]
        assert [dims for dims, _ in members] == [family + (k,) for k in horizons]
        assert 1 <= len(horizons) <= verify.PADDED_BATCH
        assert len(arrays) == len(members[0][1])
        sizes.append((family, len(horizons)))
        k_b = horizons[-1]
        for i, (k, (_, own)) in enumerate(zip(horizons, members)):
            for stack, x in zip(arrays, own):
                if x.ndim > 1:
                    assert stack[i, : k_b - k].tobytes() == bytes(stack[i, : k_b - k].nbytes)
                    assert stack[i, k_b - k :].tobytes() == x.tobytes()
                else:
                    assert stack[i].tobytes() == x.tobytes()
        yield arrays, horizons, [own for _, own in members]
    assert next(expected, None) is None
    for (family, size), (following, _) in zip(sizes, sizes[1:]):
        assert family != following or size == verify.PADDED_BATCH


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
    rows = config_sweep(planned)
    return rows, time.perf_counter() - t0
