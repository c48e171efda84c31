"""Write golden.json: sweep and exit-study values pinned for regression tests.

Run from the repository root with the engine whose numbers are to be pinned:

    PYTHONPATH=src python3 tests/data/make_golden.py

The committed file holds the values of the scalar per-run engine (tlqr
0.1.0); ``tests/test_golden.py`` holds later engines to them.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import tlqr
from tlqr import default_config, derive_seed, estimate_exit_probability, plan_experiment, run_sweep
from tlqr.simulate import _CTX_LDP

# Exit study on the configured epsilon grid with fewer runs per point than
# the configured 2000, so the test stays fast.
EXIT_RUNS = 300


def main() -> None:
    config = default_config()
    planned = plan_experiment(config)
    exits = [
        estimate_exit_probability(
            planned.policy,
            config.ldp.delta,
            eps,
            n_runs=EXIT_RUNS,
            seed=derive_seed(config.master_seed, _CTX_LDP, i),
        )
        for i, eps in enumerate(config.ldp.eps_grid)
    ]
    golden = {
        "tool_version": tlqr.__version__,
        "master_seed": config.master_seed,
        "sweep": [row.__dict__ for row in run_sweep(planned)],
        "exit_runs": EXIT_RUNS,
        "exits": [dataclasses.asdict(e) for e in exits],
    }
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
