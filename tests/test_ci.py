"""The workflow runs every step of tests/data/ci.py exactly once, and nothing but installs besides."""
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ci", ROOT / "tests" / "data" / "ci.py")
ci = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci)


def test_workflow_calls_each_ci_step_once():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = re.findall(r"^\s+(?:- )?run: (.*)$", workflow, re.MULTILINE)
    checks = [run for run in runs if not run.startswith("python -m pip install ")]
    called = [re.fullmatch(r"python3 tests/data/ci\.py (\S+)", run) for run in checks]
    assert all(called), f"runs that are neither an install nor one ci.py step: {checks}"
    assert sorted(match.group(1) for match in called) == sorted(ci.STEPS)
