"""Write artifact_digests.json: the SHA-256 of every data artifact, per seed.

Each recorded seed runs ``plan``, ``sweep --full-grid --mode both``,
``ldp`` and ``verify --suite all --out`` in-process on the bundled config
and keeps the digest of every file they write except the timestamped
``manifest.json``, each command's exit code and the digest of the
``verify`` stdout. The file also records the tool and numpy versions.
``tests/test_artifact_digests.py`` checks the master seed; seeds 2-8 are
checked here. Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_digests.py          # write the file
    PYTHONPATH=src python3 tests/data/make_digests.py --check  # compare every seed

Write the file with the engine whose bytes are to be pinned; ``--check``
exits 1 and names each differing (seed, item) otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import tlqr
from tlqr.cli import main as cli_main
from tlqr.config import default_config

PATH = Path(__file__).with_name("artifact_digests.json")
EXTRA_SEEDS = tuple(range(2, 9))
COMMANDS = {
    "plan": ["plan"],
    "sweep": ["sweep", "--full-grid", "--mode", "both"],
    "ldp": ["ldp"],
    "verify": ["verify", "--suite", "all"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(seed: int) -> dict:
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


def differences(recorded: dict, current: dict) -> list[str]:
    """Names of the exit codes and files whose recorded and current values differ."""
    names = []
    for group in ("exit_codes", "files"):
        keys = sorted(set(recorded[group]) | set(current[group]))
        names += [k for k in keys if recorded[group].get(k) != current[group].get(k)]
    return names


def seeds() -> tuple[int, ...]:
    return (default_config().master_seed,) + EXTRA_SEEDS


def write() -> None:
    record = {
        "tool_version": tlqr.__version__,
        "numpy_version": np.__version__,
        "master_seed": default_config().master_seed,
        "seeds": {str(seed): artifact_digests(seed) for seed in seeds()},
    }
    PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check() -> int:
    record = json.loads(PATH.read_text(encoding="utf-8"))
    print(
        f"recorded with tlqr {record['tool_version']}, numpy {record['numpy_version']}; "
        f"running tlqr {tlqr.__version__}, numpy {np.__version__}"
    )
    failed = False
    for seed in seeds():
        diff = differences(record["seeds"][str(seed)], artifact_digests(seed))
        failed = failed or bool(diff)
        print(f"seed {seed}: {'differs: ' + ', '.join(diff) if diff else 'identical'}")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args()
    sys.exit(check() if args.check else write())
