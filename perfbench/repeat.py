"""Run the benchmark over a range of seeds and report each metric's spread.

    python3 perfbench/repeat.py [--workloads plan,sweep_full,verify]
        [--seeds 1-10] [--trace 0|1] [--seconds S] [--json FILE]

For every workload it runs ``run.py`` once per seed, one run at a time,
and prints per metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
An end-to-end metric whose spread exceeds its bound in BENCHMARK.json is
flagged ``OVER``; one above a third of its bound is flagged ``high``. The
header records nproc and the Python and numpy versions. ``--json`` also
writes every run's result and the summary to FILE.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "elapsed_s": elapsed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result = json.loads(lines[-1])
    result.update(seed=seed, elapsed_s=elapsed, diagnostics=lines[:-1])
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write all results and the summary here")
    args = parser.parse_args()

    import numpy

    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}
    print(f"nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
          f"{args.seconds} s per run, trace {args.trace}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"environment": env, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            status = result.get("error") or (
                f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
            )
            print(f"  {workload} seed {seed}: {status}, {result['elapsed_s']:.1f} s", flush=True)
        ok = [r for r in runs if "metrics" in r]
        summary = {}
        if ok:
            print(f"{workload}: {len(ok)} runs, all correct: {all(r['correct'] for r in ok)}")
            print(f"  {'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
            for name in ok[0]["metrics"]:
                s = summarize([r["metrics"][name]["value"] for r in ok])
                summary[name] = s
                flag = ""
                if name in bounds:
                    s["bound"] = bounds[name]
                    flag = "OVER" if s["spread"] > bounds[name] else "high" if s["spread"] > bounds[name] / 3 else ""
                print(f"  {name:40s} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {s['spread']:8.4f} {flag}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
