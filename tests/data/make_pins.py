"""Write pins.json: every exact number of this tool version, pinned to the last bit.

One file holds the pins, with the tool version and the kernel fingerprint
(``tlqr.cli.kernel_fingerprint``, as in each run's ``manifest.json``) they
were recorded under:

- per seed, the master seed and seeds 2-8: the exit code of ``plan``,
  ``sweep --full-grid --mode both``, ``ldp`` and ``verify --suite all
  --out``, run in-process on the bundled config, and the SHA-256 of every
  file they write (the timestamped ``manifest.json`` aside) and of the
  ``verify`` stdout;
- per goal: the reference goal, the 11 goals ``x_g +
  default_rng(3).uniform(-0.3, 0.3, (11, 3))`` and the 40 goals ``x_g +
  default_rng(7).uniform(-0.3, 0.3, (40, 3))``. Each keeps the planner's
  iteration count, verdict, final cost, gradient norm, numbers of cost and
  gradient evaluations, and the SHA-256 of its cost history and of the
  returned controls.

``tests/test_pins.py`` checks the master seed and four goals; ``--check``
checks every seed and goal. Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_pins.py          # write the file
    PYTHONPATH=src python3 tests/data/make_pins.py --check  # compare every seed and goal

The pins hold for one tool version: a release that changes numbers on
purpose bumps the version and rewrites the file with this script in the
same change, so a running version other than the recorded one fails, as a
skip would switch the byte gate off unnoticed. They hold on the recorded
kernels: elsewhere ``--check`` may exit 1, naming each differing (seed,
item) or (goal, item) beside the recorded and the running fingerprint.
The tolerance oracles, ``golden.json`` and perfbench's reference, are not
written here.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import tlqr
from tlqr import planner
from tlqr.cli import kernel_fingerprint, plan_experiment
from tlqr.cli import main as cli_main
from tlqr.config import default_config

PATH = Path(__file__).with_name("pins.json")
EXTRA_SEEDS = tuple(range(2, 9))
COMMANDS = {
    "plan": ["plan"],
    "sweep": ["sweep", "--full-grid", "--mode", "both"],
    "ldp": ["ldp"],
    "verify": ["verify", "--suite", "all"],
}
# (name prefix, generator seed, number of goals) of the perturbed goal sets.
GOAL_SETS = (("rng3", 3, 11), ("rng7", 7, 40))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def seeds() -> tuple[int, ...]:
    return (default_config().master_seed,) + EXTRA_SEEDS


def seed_pin(seed: int) -> dict:
    """Exit codes, file digests and the verify stdout digest of one seed's commands."""
    exit_codes, files = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in COMMANDS.items():
            out = Path(tmp) / name
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                exit_codes[name] = cli_main(command + ["--seed", str(seed), "--out", str(out)])
            if name == "verify":
                files["verify_stdout"] = _sha256(stdout.getvalue().encode("utf-8"))
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    files[path.name] = _sha256(path.read_bytes())
    return {"exit_codes": exit_codes, "files": files}


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
    """Iterations, verdict, evaluation counts and digests of the plan toward one goal.

    The planner calls ``nominal_cost`` and ``cost_gradient`` through its
    module, so wrappers set there count every evaluation.
    """
    with (
        mock.patch.object(planner, "nominal_cost", wraps=planner.nominal_cost) as cost,
        mock.patch.object(planner, "cost_gradient", wraps=planner.cost_gradient) as gradient,
    ):
        planned = plan_experiment(dataclasses.replace(default_config(), x_g=goal))
    report = planned.report
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        "final_cost": report.final_cost,
        "gradient_norm": report.gradient_norm,
        "cost_evals": cost.call_count,
        "grad_evals": gradient.call_count,
        "cost_history": _sha256(np.array(report.cost_history).tobytes()),
        "controls": _sha256(np.ascontiguousarray(planned.policy.nominal.controls).tobytes()),
    }


def _leaves(entry: dict, prefix: str = "") -> dict:
    """Every value of a nested entry by its dotted key, as ``files.ldp.csv``."""
    leaves = {}
    for key, value in entry.items():
        if isinstance(value, dict):
            leaves.update(_leaves(value, f"{prefix}{key}."))
        else:
            leaves[prefix + key] = value
    return leaves


def differences(recorded: dict, current: dict) -> list[str]:
    """Keys of the items whose recorded and current values differ, or that only one has."""
    recorded, current = _leaves(recorded), _leaves(current)
    keys = sorted(recorded.keys() | current.keys())
    return [k for k in keys if k not in recorded or k not in current or recorded[k] != current[k]]


def provenance(record: dict) -> str:
    """The tool version and kernels the pins were recorded with, and those running now."""
    recorded = json.dumps(record["kernels"], sort_keys=True)
    running = json.dumps(kernel_fingerprint(), sort_keys=True)
    return (
        f"recorded with tlqr {record['tool_version']} on {recorded}; "
        f"running tlqr {tlqr.__version__} on {running}"
    )


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def write() -> None:
    record = {
        "tool_version": tlqr.__version__,
        "kernels": kernel_fingerprint(),
        "master_seed": default_config().master_seed,
        "seeds": {str(seed): seed_pin(seed) for seed in seeds()},
        "goals": {name: goal_pin(goal) for name, goal in goals().items()},
    }
    text = json.dumps(record, indent=1, sort_keys=True, allow_nan=False)
    PATH.write_text(text + "\n", encoding="utf-8")
    kernels = json.dumps(record["kernels"], sort_keys=True)
    print(f"wrote {PATH.name} for tlqr {tlqr.__version__} on {kernels}")


def check() -> int:
    record = load()
    print(provenance(record))
    if record["tool_version"] != tlqr.__version__:
        print("tool version differs: rewrite the pins with this script in the change that bumps it")
        return 1
    failed = False
    for seed in seeds():
        diff = differences(record["seeds"].get(str(seed), {}), seed_pin(seed))
        failed = failed or bool(diff)
        print(f"seed {seed}: {'differs: ' + ', '.join(diff) if diff else 'identical'}")
    named = goals()
    differing = sorted(set(record["goals"]) - set(named))  # recorded goals no longer planned
    for name, goal in named.items():
        diff = differences(record["goals"].get(name, {}), goal_pin(goal))
        if diff:
            differing.append(f"{name} ({', '.join(diff)})")
    verdict = "differs: " + "; ".join(differing) if differing else "identical"
    print(f"{len(named)} goals: {verdict}")
    return 1 if failed or differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args()
    sys.exit(check() if args.check else write())
