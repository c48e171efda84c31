"""One benchmark run inside a single process: timed CLI calls plus checks.

Started by ``run.py`` (never by hand) as

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE RECORDS_PATH

from the repository root, with ``src`` and ``perfbench`` on ``PYTHONPATH``.
It imports ``tlqr`` once, makes one untimed ``plan`` call to warm caches,
then calls ``tlqr.cli.main`` for the workload again and again. Calls are
grouped into passes of ``workloads.CALLS_PER_PASS`` calls; a new pass starts
while fewer than SECONDS have passed, and the last one finishes. Each call
is checked after its clock stops. One JSON line per call is appended to
RECORDS_PATH and flushed, so a killed worker leaves the calls it finished.

The host's speed changes by up to 1.75x within seconds, so the worker also
samples it: every SAMPLE_INTERVAL_S of wall time a timer signal runs a
fixed numpy kernel (no ``tlqr`` code) in the main thread and records the
kernel's thread CPU time. ``run.py`` scales each pass by the speed sampled
during it; the sampler's own time is subtracted from every call first.

With TRACE = 1 the passes alternate untraced and traced, starting
untraced; the untraced ones give the overhead baseline, and every call's
data artifacts must be byte-identical to the first call's.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time, thread_time

import numpy as np

import workloads
from tracer import Tracer

# A call slower than this (about ten times its duration on two cores) counts
# as failed; it stays in the timing sample.
CALL_TIMEOUT_S = {"plan": 20.0, "sweep_full": 120.0, "verify": 100.0}
SAMPLE_INTERVAL_S = 0.2
KERNEL_LOOPS = 150
# Thread CPU time of the kernel when the host runs at its fast speed
# (2 vCPUs, Python 3.11.7, numpy 2.4.6); scaled times are seconds at it.
KERNEL_REFERENCE_S = 0.00095


class SpeedSampler:
    """Times a fixed kernel from a SIGALRM handler at a steady wall-clock rate.

    The kernel has the instruction mix of the program's hot loops (small
    numpy calls under interpreter overhead). Its thread CPU time does not
    count time the thread waits, so it measures how fast the core executes,
    not how the program is scheduled. Sampling uniformly in wall time makes
    the mean of reference / kernel time the average speed over a call.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (wall, thread CPU) per kernel run
        self._a, self._x = np.eye(3), np.ones(3)

    def _run_kernel(self, signum, frame) -> None:
        a, x = self._a, self._x
        w0, c0 = perf_counter(), thread_time()
        for _ in range(KERNEL_LOOPS):
            y = a @ x + np.array([x[0], x[1], 0.1])
            np.clip(y[0], -1.0, 1.0)
        self.samples.append((perf_counter() - w0, thread_time() - c0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._run_kernel)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_now(self, runs: int = 9) -> float:
        """Host speed / reference from back-to-back kernel runs, first two dropped."""
        for _ in range(runs):
            self._run_kernel(None, None)
        cpu = sorted(c for _, c in self.samples[-(runs - 2):])
        return KERNEL_REFERENCE_S / cpu[len(cpu) // 2]

    def since(self, first: int) -> dict:
        """Sampler totals over the samples from index ``first`` on."""
        taken = self.samples[first:]
        return {
            "samples": len(taken),
            "speed_sum": sum(KERNEL_REFERENCE_S / cpu for _, cpu in taken),
            "sampler_wall_s": sum(wall for wall, _ in taken),
            "sampler_cpu_s": sum(cpu for _, cpu in taken),
        }


def run_call(cli_main, args: list[str]) -> tuple[object, str, str]:
    """(exit code or None, captured stdout, error text) of one CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return cli_main(args), out.getvalue(), ""
    except Exception:  # a crashing call is a failed op, recorded with its traceback
        return None, out.getvalue(), traceback.format_exc(limit=3)


def main() -> None:
    workload, seed, seconds, trace, records_path = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    from tlqr.cli import main as cli_main

    ref = json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))
    model = json.loads(Path(workloads.CONFIG).read_text(encoding="utf-8"))["model"]
    work = Path(records_path).parent
    tracer = Tracer() if trace else None
    per_pass = workloads.CALLS_PER_PASS[workload]
    sampler = SpeedSampler()

    with open(records_path, "a", encoding="utf-8") as records:
        warm = str(work / "warm")
        run_call(cli_main, workloads.argv("plan", seed, warm))
        shutil.rmtree(warm, ignore_errors=True)

        first_digests = None
        start = perf_counter()
        index = 0
        min_calls = per_pass * (2 if trace else 1)
        sampler.start()
        while index < min_calls or index % per_pass or perf_counter() - start < seconds:
            traced = trace and (index // per_pass) % 2 == 1
            outdir = str(work / f"call{index}")
            args = workloads.argv(workload, seed, outdir)
            if traced:
                tracer.reset()
                tracer.install()
            first = len(sampler.samples)
            c0, t0 = process_time(), perf_counter()
            try:
                code, stdout, error = run_call(cli_main, args)
            finally:
                wall, c1 = perf_counter() - t0, process_time()
                if traced:
                    tracer.uninstall()
            speed = sampler.since(first)
            record = {
                "pass": index // per_pass,
                "traced": traced,
                "wall_s": wall - speed["sampler_wall_s"],
                "cpu_s": c1 - c0 - speed["sampler_cpu_s"],
                "samples": speed["samples"],
                "speed_sum": speed["speed_sum"],
            }
            errors = [error] if error else workloads.check(workload, outdir, code, stdout, seed, ref, model)
            if wall > CALL_TIMEOUT_S[workload]:
                errors.append(f"call took {wall:.1f} s, over the {CALL_TIMEOUT_S[workload]} s limit")
            if not errors:
                digests = workloads.digests(outdir)
                if first_digests is None:
                    first_digests = digests
                elif digests != first_digests:
                    errors.append("data artifacts differ from the first call (determinism)")
            if traced:
                metrics = tracer.layer_metrics()
                metrics["cli.bytes_written"] = workloads.bytes_written(outdir) if os.path.isdir(outdir) else 0
                record["layers"] = metrics
            record["errors"] = errors
            shutil.rmtree(outdir, ignore_errors=True)
            records.write(json.dumps(record) + "\n")
            records.flush()
            index += 1
        sampler.stop()


if __name__ == "__main__":
    main()
