"""Command-line entry point: plan / sweep / ldp / verify.

Exit codes: 0 success, 1 configuration or usage error, 2 non-convergence or
failed verification (artifacts still written), 3 I/O failure. All artifact
files are byte-reproducible from (config, master seed, tool version); only
the run manifest carries timestamps.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .config import (
    FULL_GRID,
    ExperimentConfig,
    config_hash,
    default_config,
    epsilon_grid,
    load_config,
)
from .exceptions import ConfigError, NumericalFailure
from .experiments import PlannedExperiment, plan_experiment, run_exit_study, run_sweep
from .simulate import CLOSED_LOOP, OPEN_LOOP, SweepResult
from .verify import SUITE_NAMES, run_suites

_MODE_CHOICES = {"both": (CLOSED_LOOP, OPEN_LOOP), "closed": (CLOSED_LOOP,), "open": (OPEN_LOOP,)}


def _fmt(value: float) -> str:
    """Float to text with 12 significant digits; NaN prints as 'nan'."""
    return f"{value:.12g}"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def write_trajectory_csv(path: str, planned: PlannedExperiment) -> None:
    traj = planned.policy.nominal
    rows = []
    for t in range(traj.horizon + 1):
        x, y, theta = traj.states[t]
        if t < traj.horizon:
            v, phi = traj.controls[t]
        else:
            v, phi = float("nan"), float("nan")
        rows.append([t, float(x), float(y), float(theta), float(v), float(phi)])
    _write_csv(path, ["t", "x", "y", "theta", "v", "phi"], rows)


def write_matrix_stack_csv(path: str, prefix: str, stack) -> None:
    """One row per t of a (K, r, c) stack, columns {prefix}_{i}_{j} in row-major order."""
    r, c = stack.shape[1:]
    header = ["t"] + [f"{prefix}_{i}_{j}" for i in range(r) for j in range(c)]
    rows = [[t] + [float(v) for v in stack[t].ravel()] for t in range(len(stack))]
    _write_csv(path, header, rows)


def write_sweep_csv(path: str, result: SweepResult) -> None:
    header = ["epsilon", "avg_nmse_closed_pct", "avg_nmse_open_pct", "sd_closed", "sd_open", "n_runs"]
    rows = [
        [r.epsilon, r.avg_nmse_closed, r.avg_nmse_open, r.sd_closed, r.sd_open, r.n_runs]
        for r in result.rows
    ]
    _write_csv(path, header, rows)


def write_ldp_csv(path: str, estimates) -> None:
    header = ["epsilon", "delta", "n_runs", "n_exits", "p_hat", "wilson_lo", "wilson_hi"]
    rows = [
        [e.epsilon, e.delta, e.n_runs, e.n_exits, e.p_hat, e.wilson_low, e.wilson_high]
        for e in estimates
    ]
    _write_csv(path, header, rows)


def _plan_report_dict(planned: PlannedExperiment) -> dict:
    r = planned.report
    return {
        "config_hash": config_hash(planned.config),
        "tool_version": __version__,
        "converged": r.converged,
        "iterations": r.iterations,
        "final_cost": r.final_cost,
        "gradient_norm": r.gradient_norm,
        "terminal_position_error": r.terminal_position_error,
        "terminal_heading_error": r.terminal_heading_error,
        "max_bound_violation": r.max_bound_violation,
        "cost_history": list(r.cost_history),
    }


def _write_manifest(outdir: str, config: ExperimentConfig, outputs: list[str]) -> None:
    manifest = {
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "master_seed": config.master_seed,
        "nmse_norm": "stacked_euclidean",
        "outputs": sorted(outputs),
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _load(args) -> ExperimentConfig:
    """Config from --config (or the bundled default) with the --seed override.

    Also rejects a non-integer ``TLQR_THREADS``. The thread count itself has
    no effect: every Monte Carlo study runs through one batched kernel.
    """
    env = os.environ.get("TLQR_THREADS", "")
    if args.threads is None and env:
        try:
            int(env)
        except ValueError:
            raise ConfigError("TLQR_THREADS", f"not an integer: '{env}'")
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed", "must fit in 64 bits")
        config = dataclasses.replace(config, master_seed=args.seed)
    return config


def cmd_plan(args) -> int:
    config = _load(args)
    planned = plan_experiment(config)
    os.makedirs(args.out, exist_ok=True)
    outputs = ["trajectory.csv", "gains.csv", "riccati.csv", "plan_report.json"]
    write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), planned)
    write_matrix_stack_csv(os.path.join(args.out, "gains.csv"), "l", planned.policy.gains)
    write_matrix_stack_csv(os.path.join(args.out, "riccati.csv"), "p", planned.policy.riccati)
    _write_json(os.path.join(args.out, "plan_report.json"), _plan_report_dict(planned))
    _write_manifest(args.out, config, outputs + ["manifest.json"])
    return 0 if planned.report.converged else 2


def cmd_sweep(args) -> int:
    config = _load(args)
    planned = plan_experiment(config)
    grid = None
    if args.full_grid:
        grid = epsilon_grid(*FULL_GRID)
    result = run_sweep(planned, modes=_MODE_CHOICES[args.mode], grid=grid)
    os.makedirs(args.out, exist_ok=True)
    outputs = ["sweep.csv", "plan_report.json"]
    write_sweep_csv(os.path.join(args.out, "sweep.csv"), result)
    _write_json(os.path.join(args.out, "plan_report.json"), _plan_report_dict(planned))
    _write_manifest(args.out, config, outputs + ["manifest.json"])
    return 0 if planned.report.converged else 2


def cmd_ldp(args) -> int:
    config = _load(args)
    planned = plan_experiment(config)
    estimates, fit = run_exit_study(planned)
    os.makedirs(args.out, exist_ok=True)
    outputs = ["ldp.csv", "ratefit.json", "plan_report.json"]
    write_ldp_csv(os.path.join(args.out, "ldp.csv"), estimates)
    _write_json(
        os.path.join(args.out, "ratefit.json"),
        {"fit": fit.as_dict() if fit is not None else None, "delta": config.ldp.delta},
    )
    _write_json(os.path.join(args.out, "plan_report.json"), _plan_report_dict(planned))
    _write_manifest(args.out, config, outputs + ["manifest.json"])
    return 0 if planned.report.converged else 2


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITE_NAMES:
        print(
            f"error: unknown suite '{args.suite}' "
            f"(choose from {', '.join(SUITE_NAMES + ('all',))})",
            file=sys.stderr,
        )
        return 1
    config = _load(args)
    reports = run_suites(config, args.suite)
    for report in reports:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(
                f"{status} {report.suite}.{check.name}: "
                f"value={check.value:.6g} {check.op} bound={check.bound:.6g}"
            )
    all_passed = all(r.passed for r in reports)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(
            os.path.join(args.out, "verify_report.json"),
            {"passed": all_passed, "suites": [r.as_dict() for r in reports]},
        )
    print(f"verify: {'all checks passed' if all_passed else 'CHECKS FAILED'}")
    return 0 if all_passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlqr",
        description="Plan a nominal trajectory, track it with time-varying LQR, "
        "and run Monte Carlo verification experiments.",
    )
    parser.add_argument("--version", action="version", version=f"tlqr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", help="experiment config JSON (bundled default if omitted)")
        p.add_argument("--seed", type=int, help="override the config master seed")
        p.add_argument(
            "--threads", type=int, help="accepted for compatibility; no effect (or TLQR_THREADS)"
        )
        if out_required:
            p.add_argument("--out", required=True, help="output directory")

    p_plan = sub.add_parser("plan", help="optimize the nominal trajectory and gains")
    common(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser("sweep", help="NMSE vs epsilon Monte Carlo sweep")
    common(p_sweep)
    p_sweep.add_argument("--mode", choices=sorted(_MODE_CHOICES), default="both")
    p_sweep.add_argument(
        "--full-grid",
        action="store_true",
        help="use the fine grid 0.001..0.1501 step 0.001 instead of the config grid",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_ldp = sub.add_parser("ldp", help="tube exit probabilities and rate fit")
    common(p_ldp)
    p_ldp.set_defaults(func=cmd_ldp)

    p_verify = sub.add_parser("verify", help="run property-verification suites")
    common(p_verify, out_required=False)
    p_verify.add_argument("--suite", default="all", help="|".join(SUITE_NAMES + ("all",)))
    p_verify.add_argument("--out", help="optional directory for the JSON report")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
