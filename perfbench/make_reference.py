"""Write perfbench/reference.json from the program at the current commit.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

``plan`` ignores the seed, so one run gives its reference values. ``sweep``
and the exit-rate fit depend on the seed: their references pool
``REF_SEEDS`` (about three minutes on two cores), and record the standard
error of the pooled mean or the spread across seeds, which the checks in
``workloads.py`` use as the scale of their tolerance. Rerun this only for a
change that is meant to alter the numbers, and say so in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tlqr.cli import main  # noqa: E402

REF_SEEDS = range(1, 9)


def run(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    if code != 0:
        raise SystemExit(f"{' '.join(args)} exited {code}")
    return out.getvalue()


def main_reference() -> None:
    os.chdir(ROOT)
    work = Path(".bench_work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    ref: dict = {}

    out = work / "plan"
    run(workloads.argv("plan", REF_SEEDS[0], str(out)))
    report = json.loads((out / "plan_report.json").read_text(encoding="utf-8"))
    ref["plan"] = {"final_cost": report["final_cost"]}
    for name in ("trajectory", "gains", "riccati"):
        _, table = workloads.read_csv(out / f"{name}.csv")
        ref["plan"][name] = [[None if np.isnan(v) else v for v in row] for row in table.tolist()]

    blocks = {"closed": [], "open": []}
    min_margin = np.inf  # smallest open/closed NMSE ratio where criterion 7 applies
    for seed in REF_SEEDS:
        out = work / f"sweep{seed}"
        run(workloads.argv("sweep_full", seed, str(out)))
        _, table = workloads.read_csv(out / "sweep.csv")
        eps = table[:, 0]
        usable = (eps >= 0.02 - 1e-12) & (eps <= workloads.CLOSED_EPS_MAX + 1e-12)
        min_margin = min(min_margin, float(np.min(table[usable, 2] / table[usable, 1])))
        for mode in blocks:
            blocks[mode].append(workloads.sweep_blocks(table, mode))
        print(f"sweep seed {seed}: min open/closed ratio on [0.02, 0.1] so far = {min_margin:.3f}", flush=True)
    n_seeds = len(REF_SEEDS)
    ref["sweep_full"] = {"seeds": list(REF_SEEDS), "n_runs": int(table[0, 5])}
    for mode, per_seed in blocks.items():
        arr = np.array(per_seed)  # (seeds, blocks, [mean, se])
        ref["sweep_full"][mode] = [
            [float(m), float(s)]
            for m, s in zip(arr[:, :, 0].mean(axis=0), np.sqrt((arr[:, :, 1] ** 2).mean(axis=0) / n_seeds))
        ]

    sds, slopes, checks = [], [], None
    for seed in REF_SEEDS:
        out = work / f"verify{seed}"
        stdout = run(workloads.argv("verify", seed, str(out)))
        checks = [line.split(":", 1)[0].split(" ", 1)[1] for line in stdout.splitlines()[:-1]]
        report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
        for suite in report["suites"]:
            if suite["suite"] == "costerror":
                sds.append(suite["details"]["sd"])
            for check in suite["checks"]:
                if suite["suite"] == "ldp" and check["name"] == "rate_fit_slope":
                    slopes.append(check["value"])
        print(f"verify seed {seed}: sd {sds[-1]:.6g}, slope {slopes[-1]:.6g}", flush=True)
    ref["verify"] = {
        "seeds": list(REF_SEEDS),
        "checks": checks,
        "costerror_sd": statistics.fmean(sds),
        "ldp_slope_mean": statistics.fmean(slopes),
        "ldp_slope_sd": statistics.stdev(slopes),
    }
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main_reference()
