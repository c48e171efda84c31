"""Every data artifact of the master seed is byte-identical to tests/data/artifact_digests.json.

The recorded digests cover ``plan``, ``sweep --full-grid --mode both``,
``ldp`` and ``verify --suite all --out`` (``tests/data/make_digests.py``).
They hold for one tool version: a release that changes numbers on purpose
bumps the version and rewrites the file in the same change, so a version
that differs from the recorded one fails here, as a skip would switch the
byte gate off unnoticed. A numpy upgrade that moves bits fails here, by
design.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np

import tlqr

_SCRIPT = Path(__file__).parent / "data" / "make_digests.py"
_spec = importlib.util.spec_from_file_location("make_digests", _SCRIPT)
make_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_digests)

RECORDED = json.loads(make_digests.PATH.read_text(encoding="utf-8"))


def test_master_seed_artifacts_match_recorded_digests():
    assert tlqr.__version__ == RECORDED["tool_version"], (
        f"digests recorded for tlqr {RECORDED['tool_version']}, not {tlqr.__version__}"
    )
    seed = RECORDED["master_seed"]
    diff = make_digests.differences(
        RECORDED["seeds"][str(seed)], make_digests.artifact_digests(seed)
    )
    assert diff == [], (
        f"differs from the recorded bytes: {diff} (recorded with numpy "
        f"{RECORDED['numpy_version']}, running numpy {np.__version__})"
    )
