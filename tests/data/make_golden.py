"""How golden.json was made: sweep and exit-study values of tlqr 0.1.0.

The committed file holds the values of the scalar per-run engine (tlqr
0.1.0), which this script wrote when run with that engine; it is kept as
the record of what the file's numbers are and how they were computed.
``tests/test_golden.py`` holds later engines to them at a relative 1e-9.
The file is an oracle independent of the current code, so do not re-run
this script to write it: the current engine would pin its own numbers.
Exact pins of the current engine are ``pins.json``, by ``make_pins.py``.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import tlqr
from tlqr.cli import plan_experiment
from tlqr.config import default_config, epsilon_grid
from tlqr.large_deviations import exit_study
from tlqr.simulate import sweep_epsilon

# Exit study on the configured epsilon grid with fewer runs per point than
# the configured 2000, so the test stays fast.
EXIT_RUNS = 300


def main() -> None:
    config = default_config()
    planned = plan_experiment(config)
    sweep = config.sweep
    grid = epsilon_grid(sweep.eps_start, sweep.eps_step, sweep.eps_end)
    rows = sweep_epsilon(planned.policy, grid, sweep.n_runs, config.master_seed)
    exits, _ = exit_study(
        planned.policy, config.ldp.delta, config.ldp.eps_grid, EXIT_RUNS, config.master_seed
    )
    golden = {
        "tool_version": tlqr.__version__,
        "master_seed": config.master_seed,
        "sweep": [row.__dict__ for row in rows],
        "exit_runs": EXIT_RUNS,
        "exits": [dataclasses.asdict(e) for e in exits],
    }
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
