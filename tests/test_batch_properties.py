"""Property tests: every batched path equals its one-instance form bit for bit.

Hypothesis runs derandomized and without an example database, so a run
explores the same examples every time.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlqr import LqrWeights, LtvSystem, derive_seeds, first_order_cost_error, riccati_backward
from tlqr.planner import CostLinearization
from tlqr.simulate import _CTX_SWEEP, _MODE_TAGS, _sweep_seeds
from tlqr.verify import _padded_riccati

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
    gains, riccati = _padded_riccati(a, b)
    k_max = max(horizons)
    assert gains.shape == (len(horizons), k_max, n_u, n_x)
    for i, k in enumerate(horizons):
        weights = LqrWeights.constant(np.ones(n_x), np.ones(n_u), k)
        one_gains, one_riccati = riccati_backward(LtvSystem(a=a[i], b=b[i]), weights)
        assert np.array_equal(gains[i, k_max - k :], one_gains)
        assert np.array_equal(riccati[i, k_max - k :], one_riccati)


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
def test_sweep_seeds_equal_derive_seeds(master_seed, first, n_rows, n_runs, mode):
    rows = range(first, first + n_rows)
    expected = [derive_seeds(master_seed, (_CTX_SWEEP, i, _MODE_TAGS[mode]), n_runs) for i in rows]
    assert np.array_equal(_sweep_seeds(master_seed, rows, n_runs, mode), np.concatenate(expected))
