"""Sweep and exit-study values pinned against tests/data/golden.json.

The golden values come from the scalar per-run engine of tlqr 0.1.0
(``tests/data/make_golden.py``). Open-loop runs are reproduced bit for bit;
closed-loop runs may differ at round-off level, which the divergent
closed-loop regime above eps ~0.129 (steering clamp saturated near pi/2)
amplifies chaotically, so closed-loop columns are compared up to eps = 0.1.
"""
import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from tlqr.large_deviations import exit_study

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
REL_TOL = 1e-9
CLOSED_EPS_MAX = 0.1


def test_sweep_matches_golden(desk_sweep, car_experiment):
    rows, _ = desk_sweep
    planned, _ = car_experiment
    assert planned.config.master_seed == GOLDEN["master_seed"]
    assert len(rows) == len(GOLDEN["sweep"])
    for row, ref in zip(rows, GOLDEN["sweep"]):
        assert row.epsilon == ref["epsilon"] and row.n_runs == ref["n_runs"]
        assert row.avg_nmse_open == pytest.approx(ref["avg_nmse_open"], rel=REL_TOL)
        assert row.sd_open == pytest.approx(ref["sd_open"], rel=REL_TOL)
        if row.epsilon <= CLOSED_EPS_MAX:
            assert row.avg_nmse_closed == pytest.approx(ref["avg_nmse_closed"], rel=REL_TOL)
            assert row.sd_closed == pytest.approx(ref["sd_closed"], rel=REL_TOL)


def test_exit_estimates_match_golden(car_experiment):
    planned, _ = car_experiment
    refs = GOLDEN["exits"]
    estimates, _ = exit_study(
        planned.policy,
        refs[0]["delta"],
        [ref["epsilon"] for ref in refs],
        GOLDEN["exit_runs"],
        GOLDEN["master_seed"],
    )
    assert [dataclasses.asdict(est) for est in estimates] == refs


def test_golden_script_imports_and_records_the_exit_runs():
    # The script is never run (see its docstring), so loading it is what
    # shows that every name it imports from the package still exists.
    spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    assert callable(make_golden.main)
    assert make_golden.EXIT_RUNS == GOLDEN["exit_runs"]
