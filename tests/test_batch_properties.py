"""Property tests: every batched path equals its one-instance form bit for bit.

Hypothesis runs derandomized and without an example database, so a run
explores the same examples every time.
"""
import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from conftest import seeded_states
from tlqr.cli import main
from tlqr.config import ExperimentConfig, default_config, epsilon_grid, parse_config
from tlqr.error_analysis import (
    CostLinearization,
    adjoint_sweep,
    cost_error_sensitivities,
    first_order_cost_error,
    linear_deviations,
)
from tlqr.exceptions import ConfigError
from tlqr.lqr import (
    LqrWeights,
    LtvSystem,
    closed_loop_matrices,
    feedback_rows,
    riccati_backward,
)
from tlqr.simulate import (
    _CTX_SWEEP,
    _MODE_TAGS,
    _hash_seeds,
    _seed_words,
    _standard_normals,
    derive_seed,
    rollout_states,
)
from tlqr.verify import _front_pad, _identity_riccati

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

dims = st.integers(1, 4)
generator_seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(
    n_x=dims,
    n_u=dims,
    horizons=st.lists(st.integers(1, 24), min_size=1, max_size=6),
    seed=generator_seeds,
)
def test_padded_riccati_rows_equal_single_sweeps(n_x, n_u, horizons, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-1, 1)
    a = [scale * rng.uniform(-1, 1, size=(k, n_x, n_x)) for k in horizons]
    b = [rng.uniform(-1, 1, size=(k, n_x, n_u)) for k in horizons]
    k_max = max(horizons)
    gains, riccati = _identity_riccati(
        _front_pad([a_i[None] for a_i in a], k_max), _front_pad([b_i[None] for b_i in b], k_max)
    )
    assert gains.shape == (len(horizons), k_max, n_u, n_x)
    for i, k in enumerate(horizons):
        weights = LqrWeights(np.ones(n_x), np.ones(n_u))
        one_gains, one_riccati = riccati_backward(LtvSystem(a=a[i], b=b[i]), weights)
        assert np.array_equal(gains[i, k_max - k :], one_gains)
        assert np.array_equal(riccati[i, k_max - k :], one_riccati)


@PROPERTY
@given(n=st.integers(1, 6), k=st.integers(1, 24), n_x=dims, n_u=dims, seed=generator_seeds)
def test_batched_riccati_closed_loop_and_deviation_rows_equal_single_calls(n, k, n_x, n_u, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-1, 1)
    sys = LtvSystem(
        a=scale * rng.uniform(-1, 1, size=(n, k, n_x, n_x)),
        b=rng.uniform(-1, 1, size=(n, k, n_x, n_u)),
    )
    weights = LqrWeights(rng.uniform(0, 2, size=n_x), rng.uniform(0.1, 2, size=n_u))
    noises = rng.standard_normal((n, k, n_x))
    gains, riccati = riccati_backward(sys, weights)
    d = closed_loop_matrices(sys, gains)
    states, controls = linear_deviations(d, gains, noises)
    assert states.shape == (n, k + 1, n_x) and controls.shape == (n, k, n_u)
    for i in range(n):
        one = LtvSystem(a=sys.a[i], b=sys.b[i])
        one_gains, one_riccati = riccati_backward(one, weights)
        one_d = closed_loop_matrices(one, one_gains)
        one_states, one_controls = linear_deviations(one_d, one_gains, noises[i])
        assert gains[i].tobytes() == one_gains.tobytes()
        assert riccati[i].tobytes() == one_riccati.tobytes()
        assert d[i].tobytes() == one_d.tobytes()
        assert states[i].tobytes() == one_states.tobytes()
        assert controls[i].tobytes() == one_controls.tobytes()


def _adjoint_loop(terminal, forcing, maps):
    """The sweep as a loop of 2-D by 1-D products, one instance only.

    This is the rounding the pinned reference run and the artifact digests
    were recorded with.
    """
    k = len(maps)
    lam = np.empty((k + 1, len(terminal)))
    lam[k] = terminal
    for t in range(k - 1, -1, -1):
        lam[t] = forcing[t] + maps[t].T @ lam[t + 1]
    return lam


@PROPERTY
@given(n_batch=st.integers(1, 8), k=st.integers(1, 24), n=dims, seed=generator_seeds)
def test_adjoint_sweep_equals_explicit_sums(n_batch, k, n, seed):
    rng = np.random.default_rng(seed)
    maps = rng.uniform(-1, 1, size=(n_batch, k, n, n))
    forcing = rng.uniform(-1, 1, size=(n_batch, k, n))
    terminal = rng.uniform(-1, 1, size=(n_batch, n))
    batch = adjoint_sweep(terminal, forcing, maps)
    unforced = adjoint_sweep(terminal, None, maps)
    assert batch.shape == unforced.shape == (n_batch, k + 1, n)
    for i in range(n_batch):
        lam = adjoint_sweep(terminal[i], forcing[i], maps[i])
        assert batch[i].tobytes() == lam.tobytes()
        assert lam.tobytes() == _adjoint_loop(terminal[i], forcing[i], maps[i]).tobytes()
        assert lam[k].tobytes() == terminal[i].tobytes()
        free = adjoint_sweep(terminal[i], None, maps[i])
        assert unforced[i].tobytes() == free.tobytes()
        # By value: zero forcing turns a -0.0 into 0.0, None leaves it.
        assert np.array_equal(free, adjoint_sweep(terminal[i], np.zeros((k, n)), maps[i]))
        for t in range(k):
            # lam_t = sum_{s >= t} (maps_{s-1} ... maps_t)^T forcing_s, plus the
            # terminal term; ``bound`` sums the same terms in absolute value.
            expected, bound = np.zeros(n), np.zeros(n)
            prod, abs_prod = np.eye(n), np.eye(n)
            for s in range(t, k):
                expected += prod.T @ forcing[i, s]
                bound += abs_prod.T @ np.abs(forcing[i, s])
                prod, abs_prod = maps[i, s] @ prod, np.abs(maps[i, s]) @ abs_prod
            expected += prod.T @ terminal[i]
            bound += abs_prod.T @ np.abs(terminal[i])
            assert np.all(np.abs(lam[t] - expected) <= 1e-12 * bound)


@PROPERTY
@given(n=st.integers(1, 8), k=st.integers(1, 24), n_x=dims, n_u=dims, seed=generator_seeds)
def test_batched_cost_error_sensitivity_rows_equal_single_calls(n, k, n_x, n_u, seed):
    rng = np.random.default_rng(seed)
    sys = LtvSystem(
        a=rng.uniform(-1, 1, size=(n, k, n_x, n_x)), b=rng.uniform(-1, 1, size=(n, k, n_x, n_u))
    )
    gains, _ = riccati_backward(sys, LqrWeights(np.ones(n_x), np.ones(n_u)))
    d = closed_loop_matrices(sys, gains)
    lin = CostLinearization(
        cx=rng.uniform(-1, 1, size=(n, k, n_x)),
        cu=rng.uniform(-1, 1, size=(n, k, n_u)),
        cx_terminal=rng.uniform(-1, 1, size=(n, n_x)),
    )
    v = cost_error_sensitivities(lin, d, gains)
    assert v.shape == (n, k, n_x)
    for i in range(n):
        row = CostLinearization(lin.cx[i], lin.cu[i], lin.cx_terminal[i])
        assert v[i].tobytes() == cost_error_sensitivities(row, d[i], gains[i]).tobytes()


@PROPERTY
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 40),
    n_x=dims,
    n_u=dims,
    shared=st.booleans(),
    seed=generator_seeds,
)
def test_batched_first_order_cost_error_rows_equal_single_calls(n, k, n_x, n_u, shared, seed):
    rng = np.random.default_rng(seed)
    batch = () if shared else (n,)
    lin = CostLinearization(
        cx=rng.standard_normal(batch + (k, n_x)),
        cu=rng.standard_normal(batch + (k, n_u)),
        cx_terminal=rng.standard_normal(batch + (n_x,)),
    )
    states = rng.standard_normal((n, k + 1, n_x))
    controls = rng.standard_normal((n, k, n_u))
    values = first_order_cost_error(lin, states, controls)
    assert values.shape == (n,)
    for i in range(n):
        row = lin if shared else CostLinearization(lin.cx[i], lin.cu[i], lin.cx_terminal[i])
        assert values[i] == first_order_cost_error(row, states[i], controls[i])


@PROPERTY
@given(
    master_seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 300),
    n_rows=st.integers(1, 5),
    n_runs=st.integers(1, 40),
    mode=st.sampled_from(sorted(_MODE_TAGS)),
)
def test_hash_seeds_row_and_run_columns_equal_derive_seed(master_seed, first, n_rows, n_runs, mode):
    # The sweep's (rows, 1) and (runs,) columns hash as their broadcast grid.
    row_index = np.arange(first, first + n_rows, dtype=np.uint32)[:, None]
    run_index = np.arange(n_runs, dtype=np.uint32)
    tag = _MODE_TAGS[mode]
    grid = _hash_seeds(master_seed, _CTX_SWEEP, row_index, tag, run_index)
    expected = [
        [derive_seed(master_seed, _CTX_SWEEP, i, tag, j) for j in range(n_runs)]
        for i in range(first, first + n_rows)
    ]
    assert grid.dtype == np.uint64 and grid.tolist() == expected
    flat = _hash_seeds(
        master_seed, _CTX_SWEEP, np.repeat(row_index, n_runs), tag, np.tile(run_index, n_rows)
    )
    assert flat.tolist() == grid.ravel().tolist()


@PROPERTY
@given(
    master_seed=st.integers(0, 2**64 - 1),
    tags=st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=8),
    n_runs=st.integers(1, 20),
)
def test_hash_seeds_on_tag_tuples_longer_than_the_pool(master_seed, tags, n_runs):
    # Master seed, tags and run index make at least six entropy words, more
    # than the four-word pool: the words past the pool mix in one by one.
    seeds = _hash_seeds(master_seed, *tags, np.arange(n_runs, dtype=np.uint32))
    assert seeds.tolist() == [derive_seed(master_seed, *tags, j) for j in range(n_runs)]


EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


@PROPERTY
@given(
    # Seeds below 2**32 have a zero high word, which hashes as pool padding.
    seeds=st.lists(
        st.one_of(
            st.sampled_from(EDGE_SEEDS), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
        ),
        max_size=40,
    ),
    shape=st.sampled_from([(1, 1), (7, 3), (20, 4), (33, 2)]),
)
@example(seeds=EDGE_SEEDS, shape=(20, 4))
def test_standard_normals_rows_equal_default_rng(seeds, shape):
    # Filled as the kernel fills it: into the future states of each run.
    states = np.full((len(seeds), shape[0] + 1, shape[1]), np.nan)
    _standard_normals(_seed_words(np.array(seeds, dtype=np.uint64)), states[:, 1:])
    assert np.isnan(states[:, 0]).all()
    for draws, seed in zip(states[:, 1:], seeds):
        assert draws.tobytes() == np.random.default_rng(seed).standard_normal(shape).tobytes()


@st.composite
def run_batches(draw):
    """(seeds, epsilons, permutation) of one kernel batch.

    Up to 40 runs: the kernel steps each batch along contiguous rows of runs,
    so rows reach numpy's 8-wide AVX-512 main loops as well as their tails.
    """
    n = draw(st.integers(1, 40))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    epsilons = draw(st.lists(st.floats(0.0, 0.15), min_size=n, max_size=n))
    return seeds, epsilons, draw(st.permutations(range(n)))


@PROPERTY
@given(batch=run_batches(), mode=st.sampled_from(sorted(_MODE_TAGS)))
def test_kernel_rows_follow_their_run_not_the_batch(car_experiment, batch, mode):
    planned, _ = car_experiment
    seeds, epsilons, order = batch
    states = seeded_states(planned.policy, epsilons, mode, seeds)
    permuted = seeded_states(
        planned.policy, [epsilons[i] for i in order], mode, [seeds[i] for i in order]
    )
    # Bytes, so that signed zeros and any NaN compare bit for bit too.
    assert permuted.tobytes() == states[order].tobytes()
    alone = seeded_states(planned.policy, epsilons[:1], mode, seeds[:1])
    assert alone.tobytes() == states[:1].tobytes()


@PROPERTY
@given(batch=run_batches(), mode=st.sampled_from(sorted(_MODE_TAGS)))
def test_kernel_rows_given_their_normals_equal_the_seeded_path(car_experiment, batch, mode):
    policy = car_experiment[0].policy
    seeds, epsilons, order = batch
    normals = np.array(
        [np.random.default_rng(s).standard_normal((policy.horizon, 3)) for s in seeds]
    )
    states = np.full((len(seeds), policy.horizon + 1, 3), np.nan)
    states[:, 1:] = normals
    assert rollout_states(policy, epsilons, mode, states) is None  # steps in place
    assert states.tobytes() == seeded_states(policy, epsilons, mode, seeds).tobytes()
    permuted = np.full_like(states, np.nan)
    permuted[:, 1:] = normals[order]
    rollout_states(policy, [epsilons[i] for i in order], mode, permuted)
    assert permuted.tobytes() == states[order].tobytes()


@st.composite
def clamping_states(draw, policy):
    """(t, states) of one batch: deviations from the nominal far enough to clamp.

    Some rows are random directions on a log scale up to 1e3; the others are
    aimed so that the unclamped steering lands within a few ulps of +-pi/2.
    """
    t = draw(st.integers(0, policy.horizon - 1))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(generator_seeds))
    x_nom, u_nom, gain = policy.nominal.states[t], policy.nominal.controls[t], policy.gains[t]
    states = np.empty((n, 3))
    for i in range(n):
        direction = rng.standard_normal(3)
        if draw(st.booleans()):
            scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        else:
            ulps = draw(st.integers(-3, 3)) * np.spacing(np.pi / 2)
            target = draw(st.sampled_from([1.0, -1.0])) * (np.pi / 2 + ulps)
            scale = (u_nom[1] - target) / (gain[1] @ direction)
        states[i] = x_nom + scale * direction
    return t, states


@PROPERTY
@given(data=st.data())
def test_clamped_feedback_rows_equal_single_calls(car_experiment, data):
    policy = car_experiment[0].policy
    car = policy.model
    t, states = data.draw(clamping_states(policy))
    # One state at a time, as (n, 1) rows.
    controls = np.array(
        [feedback_rows(policy, t, x[:, None], np.empty((2, 1)))[:, 0] for x in states]
    )
    assert controls.shape == (len(states), 2)
    assert np.all(np.abs(controls[:, 0]) <= car.v_max)
    assert np.all(np.abs(controls[:, 1]) < car.phi_max)
    # The row form on C-ordered and on transposed rows, and the law as an
    # elementwise product summed by np.sum over the state axis.
    dev = (states - policy.nominal.states[t])[:, None, :]
    law = policy.nominal.controls[t] - np.sum(policy.gains[t] * dev, axis=-1)
    assert controls.tobytes() == car.clamp_rows(law.T).T.tobytes()
    for rows in (np.ascontiguousarray(states.T), states.T):
        out = np.full((2, len(states)), np.nan)
        assert feedback_rows(policy, t, rows, out) is out
        assert out.T.tobytes() == controls.tobytes()


def _config_paths(value, path=()):
    """Every (key path) of a config dict, nested objects and list entries included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _config_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _config_paths(item, path + (i,))


_DEFAULT = default_config().to_dict()
_PATHS = list(_config_paths(_DEFAULT))[1:]
_BAD_VALUES = st.one_of(
    st.sampled_from(
        [None, True, "", "car", [], {}, [1.0], {"a": 1}, math.nan, math.inf, -math.inf]
        + [-1, -1.0, 0, 0.0, 2**31, 2**32, 2**63, 2**64, 10**30, 10**400, -(10**400)]
    ),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)


@st.composite
def mutated_configs(draw):
    """The default config as a JSON dict, with a few keys replaced, removed or added."""
    data = copy.deepcopy(_DEFAULT)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_PATHS))
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
        action = draw(st.sampled_from(["replace", "replace", "remove", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_BAD_VALUES)
        elif action == "remove" and isinstance(parent, dict):
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=5))] = draw(_BAD_VALUES)
        else:
            parent.append(draw(_BAD_VALUES))
    return data


@settings(PROPERTY, max_examples=200)
@given(data=mutated_configs())
def test_parse_config_raises_only_config_error(data):
    try:
        config = parse_config(data)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


@PROPERTY
@given(
    mantissa=st.floats(1.0, 10.0),
    exponent=st.integers(-14, 8),
    quanta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    ulps=st.floats(0.0, 40.0),
    size=st.integers(2, 200),
)
def test_accepted_sweep_grids_stay_strictly_increasing_when_rounded(
    mantissa, exponent, quanta, ulps, size
):
    # Steps near both limits of the 12-decimal rounding: its quantum, and the
    # float spacing of the grid's points.
    start = mantissa * 10.0**exponent
    step = quanta * 1e-12 + ulps * float(np.spacing(start))
    data = copy.deepcopy(_DEFAULT)
    data["sweep"].update(eps_start=start, eps_step=step, eps_end=start + step * (size - 1))
    try:
        sweep = parse_config(data).sweep
    except ConfigError:
        return
    grid = epsilon_grid(sweep.eps_start, sweep.eps_step, sweep.eps_end)
    assert grid[0] > 0 and np.isfinite(grid[-1]) and np.all(np.diff(grid) > 0)


def _cheap(data: dict) -> bool:
    """Whether a config the CLI accepts runs in well under a second."""
    try:
        config = parse_config(data)
    except ConfigError:
        return True  # rejected before any work
    sweep, ldp = config.sweep, config.ldp
    grid_points = (sweep.eps_end - sweep.eps_start) / sweep.eps_step + 1
    return (
        config.horizon <= 60
        and config.planner.max_iters <= 1000
        and grid_points * sweep.n_runs <= 5000
        and len(ldp.eps_grid) * ldp.n_runs <= 20000
    )


# No shrinking: it would rerun whole CLI commands hundreds of times on a failure.
@settings(PROPERTY, max_examples=60, phases=[Phase.explicit, Phase.generate])
@given(
    data=mutated_configs(),
    command=st.sampled_from(["plan", "sweep", "ldp"]),
    seed=st.one_of(st.none(), st.sampled_from([-1, 0, 2**64 - 1, 2**64]), st.integers()),
)
@example(data=_DEFAULT, command="sweep", seed=2**64 - 1)
@example(data=_DEFAULT, command="ldp", seed=None)
@example(data=_DEFAULT, command="plan", seed=2**64)
@example(data={**_DEFAULT, "planner": {**_DEFAULT["planner"], "max_iters": 3}}, command="sweep", seed=0)
def test_cli_on_mutated_configs_exits_with_a_documented_code(data, command, seed):
    assume(_cheap(data))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        # An exception escaping main would print a traceback; here it fails the test.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert sum(line.startswith("error:") for line in lines) <= 1
    assert not any("Traceback" in line for line in lines)
    assert (code == 0) == (lines == [])
    if seed is not None and not 0 <= seed < 2**64:
        assert code == 1
