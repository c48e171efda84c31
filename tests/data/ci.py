"""Run CI's check steps by id; .github/workflows/tier1.yml calls each step once.

Stdlib only. Each step runs from the repository root with this script's
interpreter and prints one PASS or FAIL line with its seconds; the script
exits 1 if any step failed. Where the package is not installed, the
console step runs the CLI from ``src`` (PYTHONPATH entries are read from
the repository root):

    python3 tests/data/ci.py --list        # the step ids
    python3 tests/data/ci.py tier1 pins    # some steps; none runs every step
    PYTHONPATH=src python3 tests/data/ci.py console --command "python -m tlqr.cli"
    python3 tests/data/ci.py --kernel-rows # README.md's kernel table, about a minute a row

``--kernel-rows`` runs the ``pins`` and ``tier1`` commands under each kernel
row, with the row's environment set on its child processes only, and
prints one table. It exits 0, as the rows past the second fail today.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PY = sys.executable
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
FINGERPRINT = [
    "-c",
    "import json; from tlqr.cli import kernel_fingerprint; "
    "print(json.dumps(kernel_fingerprint(), indent=1))",
]
PYTEST = ["-X", "dev", "-m", "pytest", "-q", "-rs"]
TIER1 = [*PYTEST, "--continue-on-collection-errors", "--durations=15"]
PIN_CHECK = ["tests/data/make_pins.py", "--check"]
# The steps that run one command: its interpreter arguments and environment.
COMMANDS = {
    # OpenBLAS's core and numpy's SIMD targets, as manifest.json and pins.json
    # name them, so that a pin failure can be read against the runner's kernels.
    "fingerprint": (FINGERPRINT, {}),
    "tier1": (TIER1, {}),
    # A BLAS product rounds a row by where it falls in the thread split, so the
    # cost-error block identity must hold under both splits, and so must the
    # byte tests of verify's front-padded batches (in test_error_analysis.py
    # and test_lqr.py), which rest on item-wise products.
    "tests-1thread": (
        [*PYTEST, "tests/test_error_analysis.py", "tests/test_verify.py", "tests/test_lqr.py"],
        SINGLE_THREAD,
    ),
    # Over 10 s, so outside tier-1: the artifact bytes of the master seed and
    # seeds 2-8, and every planner iterate on 52 goals that converge, stall or
    # hit the cap; also BLAS single-threaded, as the benchmark runs.
    "pins": (PIN_CHECK, {}),
    "pins-1thread": (PIN_CHECK, SINGLE_THREAD),
}
_NUMPY_AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# README.md's kernel rows, in its order.
ROWS = (
    ("default kernels", {}),
    ("single-threaded BLAS", SINGLE_THREAD),
    ("OPENBLAS_CORETYPE=Sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}),
    ("numpy AVX2", _NUMPY_AVX2),
    ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OPENBLAS_CORETYPE=Nehalem", {"OPENBLAS_CORETYPE": "Nehalem"}),
    ("Haswell + numpy AVX2", {"OPENBLAS_CORETYPE": "Haswell", **_NUMPY_AVX2}),
)


def run(argv: list[str], env: dict[str, str] | None = None, src: bool = True, **kwargs):
    """subprocess.run from the repository root, with its ``src`` first on PYTHONPATH if ``src``."""
    child = {**os.environ, **(env or {})}
    paths = [str(ROOT / p) for p in child.pop("PYTHONPATH", "").split(os.pathsep) if p]
    if src or paths:
        child["PYTHONPATH"] = os.pathsep.join(([str(ROOT / "src")] if src else []) + paths)
    return subprocess.run(argv, **{"cwd": ROOT, "env": child, "text": True, **kwargs})


def _python(argv: list[str], env: dict[str, str]) -> bool:
    return run([PY, *argv], env).returncode == 0


def bench() -> bool:
    """perfbench's workloads, untraced and traced: calls correct, traced plan counts as pinned.

    The traced runs wrap package functions found by name, so a renamed or
    deleted function must leave them working too.
    """
    keys = ("iterations", "cost_evals", "grad_evals")
    pinned = json.loads((ROOT / "tests/data/pins.json").read_text())["goals"]["reference"]
    for workload in ("plan", "sweep_full", "verify"):
        for trace in ("0", "1"):
            argv = ["--workload", workload, "--seed", "1", "--seconds", "2", "--trace", trace]
            done = run([PY, "perfbench/run.py", *argv], src=False, stdout=subprocess.PIPE)
            print(done.stdout, end="", flush=True)
            if done.returncode != 0:
                return False
            result = json.loads(done.stdout.splitlines()[-1])  # the last line is one JSON object
            if not result["correct"] or result["failed"] != 0:
                return False
            if workload == "plan" and trace == "1":
                got = {k: result["metrics"][f"planner.{k}"]["value"] for k in keys}
                want = {k: pinned[k] for k in keys}
                print(f"traced plan counts {got}, pinned {want}")
                if got != want:
                    return False
    return True


def console(command: list[str]) -> bool:
    """``--version`` and the five CLI commands through ``--command``, then what they wrote.

    The CLI writes to stderr only on failure (its one ``error:`` line), so any
    stderr output, a warning included, fails the step. Every JSON artifact
    must be strict JSON, with no NaN or Infinity token, and ``import tlqr``
    from outside the checkout must load none of the package's modules.
    """
    config = ["--config", "configs/car.json"]
    outputs = {
        "verify": ["verify", "--suite", "all"],
        "plan": ["plan", *config],
        "sweep": ["sweep", *config],
        "full": ["sweep", *config, "--full-grid", "--mode", "both"],
        "ldp": ["ldp", *config],
    }
    with tempfile.TemporaryDirectory(dir=os.environ.get("RUNNER_TEMP")) as tmp:
        for argv in [["--version"], *([*a, "--out", f"{tmp}/{out}"] for out, a in outputs.items())]:
            done = run([*command, *argv], src=False, stderr=subprocess.PIPE)
            if done.returncode != 0 or done.stderr:
                print(f"{done.stderr}{shlex.join(argv)} exited with {done.returncode} and that stderr")
                return False
        for out in outputs:
            files = sorted(Path(tmp, out).glob("*.json"))
            if not files:
                print(f"{out} wrote no JSON file")
                return False
            for path in files:
                json.loads(path.read_text(), parse_constant=functools.partial(_reject, path))
        imported = run([PY, "-c", "import sys, tlqr; print(*sys.modules)"],
                       src=False, cwd=tmp, stdout=subprocess.PIPE)
    loaded = sorted(m for m in imported.stdout.split() if m.startswith("tlqr."))
    print(f"import tlqr loaded {loaded}")
    return imported.returncode == 0 and not loaded


def _reject(path: Path, token: str):
    raise ValueError(f"{path} holds {token}")


STEPS = {
    **{name: functools.partial(_python, *spec) for name, spec in COMMANDS.items()},
    "bench": bench,
    "console": console,
}


def kernel_row(env: dict[str, str]) -> str:
    """One row's cells: pins (``hold`` or what differs), passed and failed tests, fingerprint."""
    check = run([PY, *PIN_CHECK], env, capture_output=True)
    lines = check.stdout.splitlines()
    goals = next((line for line in lines if " goals: " in line), None)
    seeds = sum(line.startswith("seed ") and ": differs" in line for line in lines)
    if check.returncode == 0:
        pin = "hold"
    elif check.returncode != 1 or goals is None:
        pin = f"error (exit {check.returncode})"
    else:
        pin = f"differ: {seeds} seeds{'' if goals.endswith(': identical') else ', goals'}"
    summary = (run([PY, *TIER1], env, capture_output=True).stdout.strip().splitlines() or [""])[-1]
    count = {}
    for word in ("passed", "failed", "error"):  # collection errors count as failed
        found = re.search(rf"(\d+) {word}", summary)
        count[word] = int(found.group(1)) if found else 0
    kernels = json.dumps(json.loads(run([PY, *FINGERPRINT], env, capture_output=True).stdout))
    return f"{pin} | {count['passed']} | {count['failed'] + count['error']} | `{kernels}`"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("steps", nargs="*", metavar="STEP", help="steps to run; none runs all")
    parser.add_argument("--command", default="tlqr", help="the CLI for the console step")
    parser.add_argument("--list", action="store_true", help="print the step ids")
    parser.add_argument("--kernel-rows", action="store_true", help="print README.md's kernel table")
    args = parser.parse_intermixed_args()
    if unknown := [name for name in args.steps if name not in STEPS]:
        parser.error(f"unknown step {', '.join(unknown)}; known: {', '.join(STEPS)}")
    if args.list:
        print(*STEPS, sep="\n")
        return 0
    if args.kernel_rows:
        print("| row | pins | passed | failed | kernels |\n|---|---|---|---|---|")
        for label, env in ROWS:
            print(f"| {label} | {kernel_row(env)} |", flush=True)
        return 0
    failed = 0
    for name in args.steps or STEPS:
        start = time.perf_counter()
        try:
            ok = STEPS[name](shlex.split(args.command)) if name == "console" else STEPS[name]()
        except Exception:  # a malformed output fails its step; the other steps still run
            traceback.print_exc()
            ok = False
        print(f"{'PASS' if ok else 'FAIL'} {name} {time.perf_counter() - start:.1f} s", flush=True)
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
