"""Benchmark entry point for the tlqr CLI.

    python3 perfbench/run.py --workload {plan,sweep_full,verify} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is taken from ``src`` of
the same checkout, and all scratch files go to ``.bench_work`` there and
are removed at the end. ``--seed`` becomes the config's ``master_seed``.

With ``--trace 0`` it times set-up (``SETUP_RUNS`` fresh interpreters, half
before and half after the worker, each timing ``import tlqr`` plus loading
the config, scaled to the reference speed) and starts one worker process, which runs the workload's CLI
command in passes of ``workloads.CALLS_PER_PASS`` calls for ``--seconds``
and checks every call's outputs. It prints the end-to-end metrics: the
median set-up time, the median over passes of the mean wall and CPU time
of one call scaled to the host's reference speed (see ``worker.py``), and
the worker's peak resident memory. With ``--trace 1`` it
skips set-up, the worker alternates untraced and traced passes, and it
prints the per-layer metrics. The last line of standard output is one JSON
object; the lines before it are diagnostics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("plan", "sweep_full", "verify")
CONFIG = "configs/car.json"
SETUP_RUNS = 8
SETUP_TIMEOUT_S = 30
RUN_DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s
# Times import plus config load, then samples the host speed right after
# (a set-up is far shorter than the host's 5-15 s speed stretches).
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import tlqr\n"
    "from tlqr.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "elapsed = time.perf_counter() - t0\n"
    "import worker\n"
    "print(elapsed * worker.SpeedSampler().speed_now())\n"
)


def child_env() -> dict[str, str]:
    """Single-threaded environment with this checkout's sources first."""
    env = dict(os.environ)
    env.pop("TLQR_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict[str, str], runs: int, warm: bool) -> list[float]:
    """Set-up times of fresh interpreters, after one warm-up if asked."""
    times = []
    for i in range(runs + warm):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, CONFIG],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        if i >= warm:
            times.append(float(proc.stdout.split()[-1]))
    return times


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile: {n} calls, at least 11 needed (max {max(values):.4f} s)"
    ordered = sorted(values)
    pct = 100.0 * (n - 10) / n
    return f"p{pct:.0f} = {ordered[n - 11]:.4f} s over {n} calls, 10 beyond it"


def run_worker(args, env, work: Path, deadline: float) -> tuple[list[dict], str]:
    """Per-call records and an error text ('' when the worker ended cleanly)."""
    records_path = work / "calls.jsonl"
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(records_path)]
    error = ""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            error = f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        error = "worker killed at the run deadline"
    records = []
    if records_path.exists():
        records = [json.loads(line) for line in records_path.read_text(encoding="utf-8").splitlines()]
    return records, error


def pass_speeds(records: list[dict]) -> dict[int, float]:
    """Host speed relative to the reference, averaged over each pass.

    A pass with no speed sample (shorter than the sampling interval) takes
    the run's average.
    """
    totals: dict[int, list[float]] = {}
    for r in records:
        entry = totals.setdefault(r["pass"], [0.0, 0])
        entry[0] += r["speed_sum"]
        entry[1] += r["samples"]
    overall = sum(s for s, _ in totals.values()) / max(1, sum(n for _, n in totals.values()))
    return {p: s / n if n else overall for p, (s, n) in totals.items()}


def pass_means(records: list[dict], key: str, speeds: dict[int, float]) -> list[float]:
    """Mean time of one CLI call in each pass, scaled to the reference speed."""
    passes: dict[int, list[float]] = {}
    for r in records:
        passes.setdefault(r["pass"], []).append(r[key])
    return [statistics.fmean(v) * speeds[p] for p, v in passes.items()]


def end_to_end(records: list[dict], setup: list[float]) -> dict[str, float]:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)  # largest child: the worker
    speeds = pass_speeds(records)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_means(records, "wall_s", speeds)),
        "cpu_s": statistics.median(pass_means(records, "cpu_s", speeds)),
        "peak_rss_mb": children.ru_maxrss / 1024.0,
    }


def per_layer(records: list[dict], time_units: set[str]) -> dict[str, float]:
    """Per-layer metrics of the traced calls; times scaled like wall_s."""
    speeds = pass_speeds(records)
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    metrics = {}
    for name in traced[0]["layers"] if traced else ():
        scale = name in time_units
        values = [r["layers"][name] * (speeds[r["pass"]] if scale else 1) for r in traced]
        # Exact counts repeat in every call and keep their integer type.
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    if traced and plain:
        base = statistics.median(pass_means(plain, "wall_s", speeds))
        metrics["tracing.overhead_pct"] = (
            100.0 * (statistics.median(pass_means(traced, "wall_s", speeds)) - base) / base
        )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    needed = ("BENCHMARK.json", "src/tlqr/cli.py", CONFIG, "perfbench/reference.json")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a tlqr checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_DEADLINE_S
    env = child_env()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # Set-up is timed on both sides of the worker, so that the median
        # spans the run rather than one moment of it.
        setup = [] if args.trace else measure_setup(env, SETUP_RUNS // 2, warm=True)
        records, worker_error = run_worker(args, env, work, deadline)
        if not args.trace:
            setup += measure_setup(env, SETUP_RUNS - len(setup), warm=False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if not records:
        print(f"error: no call finished; {worker_error}", file=sys.stderr)
        return 1

    failed = [r for r in records if r["errors"]]
    attempted = len(records) + (1 if worker_error else 0)
    n_failed = len(failed) + (1 if worker_error else 0)
    walls = [r["wall_s"] for r in records]
    speeds = pass_speeds(records)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} calls in "
          f"{len(speeds)} passes, {n_failed} failed")
    print(f"unscaled call wall time: median {statistics.median(walls):.4f} s, {tail_percentile(walls)}")
    print(f"host speed / reference per pass: {', '.join(f'{v:.3f}' for v in speeds.values())}")
    for r in failed[:3]:
        print(f"a call in pass {r['pass']} failed: {'; '.join(r['errors'])[:400]}")
    if worker_error:
        print(worker_error[:400])

    # Names and units come from BENCHMARK.json; a layer entry point that a
    # later change removed reads zero instead of failing the run.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        times = {m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "ms", "us")}
        values = per_layer(records, times)
    else:
        values = end_to_end(records, setup)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted, "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
