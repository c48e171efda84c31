"""Write goal_pins.json: the planner's iterate sequence on 52 goals, pinned to the last bit.

The goals are the reference goal, the 11 goals ``x_g + default_rng(3).uniform(-0.3,
0.3, (11, 3))`` of ``tests/test_planner.py`` and the 40 goals ``x_g +
default_rng(7).uniform(-0.3, 0.3, (40, 3))``. For each goal the file keeps the
iteration count, whether the planner converged, and the SHA-256 of its cost
history and of the returned controls. The file also records the tool and numpy
versions. Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_goal_pins.py          # write the file
    PYTHONPATH=src python3 tests/data/make_goal_pins.py --check  # compare every goal

Write the file with the engine whose iterates are to be pinned; ``--check``
exits 1 and names each differing goal and item otherwise.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import tlqr
from tlqr.config import default_config
from tlqr.experiments import plan_experiment

PATH = Path(__file__).with_name("goal_pins.json")
# (name prefix, generator seed, number of goals) of the perturbed goal sets.
GOAL_SETS = (("rng3", 3, 11), ("rng7", 7, 40))


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def goals() -> dict[str, tuple[float, ...]]:
    """Every pinned goal by name, the reference goal first."""
    x_g = np.asarray(default_config().x_g, dtype=float)
    named = {"reference": tuple(x_g.tolist())}
    for prefix, seed, count in GOAL_SETS:
        offsets = np.random.default_rng(seed).uniform(-0.3, 0.3, (count, 3))
        for row, offset in enumerate(offsets):
            named[f"{prefix}_{row:02d}"] = tuple((x_g + offset).tolist())
    return named


def goal_pin(goal: tuple[float, ...]) -> dict:
    """Iterations, verdict and digests of the plan toward one goal."""
    planned = plan_experiment(dataclasses.replace(default_config(), x_g=goal))
    report = planned.report
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        "cost_history": _sha256(np.array(report.cost_history)),
        "controls": _sha256(planned.policy.nominal.controls),
    }


def write() -> None:
    record = {
        "tool_version": tlqr.__version__,
        "numpy_version": np.__version__,
        "goals": {name: goal_pin(goal) for name, goal in goals().items()},
    }
    PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check() -> int:
    record = json.loads(PATH.read_text(encoding="utf-8"))
    print(
        f"recorded with tlqr {record['tool_version']}, numpy {record['numpy_version']}; "
        f"running tlqr {tlqr.__version__}, numpy {np.__version__}"
    )
    named = goals()
    differing = sorted(set(record["goals"]) - set(named))  # recorded goals no longer planned
    for name, goal in named.items():
        recorded, current = record["goals"].get(name, {}), goal_pin(goal)
        items = [k for k in sorted(set(recorded) | set(current)) if recorded.get(k) != current.get(k)]
        if items:
            differing.append(f"{name} ({', '.join(items)})")
    print(f"{len(named)} goals: " + ("differs: " + "; ".join(differing) if differing else "identical"))
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args()
    sys.exit(check() if args.check else write())
