"""Run the exact-pin check and tier-1 under each kernel row of README.md's table; print one table.

The exact pins (``pins.json``) were recorded on one set of kernels:
OpenBLAS's SkylakeX core and numpy's AVX-512 loops. Each row below forces
other kernels through environment variables, which this script sets on its
child processes only, and runs in each:

- ``tests/data/make_pins.py --check`` (pins: ``hold`` on exit 0, else the
  number of differing seeds and whether the goals differ);
- tier-1, ``python -m pytest -q --continue-on-collection-errors`` (passed,
  and failed counting collection errors too).

Rows run one after another, about half a minute each on a 2-core machine.
The script takes no options and is not part of tier-1: the rows past the
first two fail today. Run from anywhere:

    python3 tests/data/kernel_matrix.py
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_NUMPY_AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# README.md's kernel rows, in its order.
ROWS = (
    ("default kernels", {}),
    ("single-threaded BLAS", _SINGLE_THREAD),
    ("OPENBLAS_CORETYPE=Sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}),
    ("numpy AVX2", _NUMPY_AVX2),
    ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OPENBLAS_CORETYPE=Nehalem", {"OPENBLAS_CORETYPE": "Nehalem"}),
    ("Haswell + numpy AVX2", {"OPENBLAS_CORETYPE": "Haswell", **_NUMPY_AVX2}),
)


def _run(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    child_env = {**os.environ, **env}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env, capture_output=True, text=True
    )


def pin_result(env: dict[str, str]) -> str:
    check = _run(["tests/data/make_pins.py", "--check"], env)
    if check.returncode == 0:
        return "hold"
    lines = check.stdout.splitlines()
    seeds = sum(line.startswith("seed ") and ": differs" in line for line in lines)
    goals = next((line for line in lines if " goals: " in line), None)
    if check.returncode != 1 or goals is None:
        return f"error (exit {check.returncode})"
    goals_differ = not goals.endswith(": identical")
    return f"differ: {seeds} seeds{', goals' if goals_differ else ''}"


def tier1_counts(env: dict[str, str]) -> tuple[int, int]:
    tests = _run(["-m", "pytest", "-q", "--continue-on-collection-errors"], env)
    summary = tests.stdout.strip().splitlines()[-1] if tests.stdout.strip() else ""

    def count(word: str) -> int:
        found = re.search(rf"(\d+) {word}", summary)
        return int(found.group(1)) if found else 0

    return count("passed"), count("failed") + count("error")


def main() -> int:
    print("| row | pins | passed | failed |")
    print("|---|---|---|---|")
    for label, env in ROWS:
        passed, failed = tier1_counts(env)
        print(f"| {label} | {pin_result(env)} | {passed} | {failed} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
