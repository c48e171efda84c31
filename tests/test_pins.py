"""The master seed's data artifacts and four goals' planner iterates equal tests/data/pins.json.

``tests/data/make_pins.py`` writes the file and ``--check`` compares every
seed and goal it holds; tier-1 checks the entries below. The pins hold for
one tool version, so a version other than the recorded one fails here, as a
skip would switch the byte gate off unnoticed. Each failure names the
differing items and the kernels the pins were recorded on and are running
on: a numpy, BLAS or CPU that moves a bit fails here, by design.
"""
import pytest

import tlqr
from conftest import make_pins

PINS = make_pins.load()

# The goals tier-1 plans, each for a planner path the others do not take.
GOALS = {
    "reference": "the reference goal: converges with every curvature pair kept",
    "rng3_00": "stops at the iteration cap",
    "rng3_03": "stops at the iteration cap after skipping one curvature pair",
    "rng3_09": "converges early",
}


def assert_pinned(name: str, recorded: dict, current: dict) -> None:
    assert tlqr.__version__ == PINS["tool_version"], make_pins.provenance(PINS)
    diff = make_pins.differences(recorded, current)
    assert diff == [], f"{name} differs in {', '.join(diff)}; {make_pins.provenance(PINS)}"


def test_master_seed_artifacts_pinned():
    seed = PINS["master_seed"]
    assert_pinned(f"seed {seed}", PINS["seeds"][str(seed)], make_pins.seed_pin(seed))


@pytest.mark.parametrize("goal", GOALS)
def test_goal_iterates_pinned(goal):
    current = make_pins.goal_pin(make_pins.goals()[goal])
    assert_pinned(f"goal {goal} ({GOALS[goal]})", PINS["goals"][goal], current)
