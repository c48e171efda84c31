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
from .simulate import CLOSED_LOOP, OPEN_LOOP
from .verify import SUITE_NAMES, run_suites

_MODE_CHOICES = {"both": (CLOSED_LOOP, OPEN_LOOP), "closed": (CLOSED_LOOP,), "open": (OPEN_LOOP,)}


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header: list[str], rows: list[list]) -> str:
    """CSV text; floats get 12 significant digits and NaN prints as 'nan'."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _trajectory_csv(traj) -> str:
    rows = []
    for t in range(traj.horizon + 1):
        x, y, theta = traj.states[t]
        if t < traj.horizon:
            v, phi = traj.controls[t]
        else:
            v, phi = float("nan"), float("nan")
        rows.append([t, float(x), float(y), float(theta), float(v), float(phi)])
    return _csv(["t", "x", "y", "theta", "v", "phi"], rows)


def _matrix_stack_csv(prefix: str, stack) -> str:
    """One row per t of a (K, r, c) stack, columns {prefix}_{i}_{j} in row-major order."""
    r, c = stack.shape[1:]
    header = ["t"] + [f"{prefix}_{i}_{j}" for i in range(r) for j in range(c)]
    return _csv(header, [[t] + [float(v) for v in stack[t].ravel()] for t in range(len(stack))])


def _write_outputs(outdir: str, config: ExperimentConfig, files: dict[str, str]) -> None:
    """Write each {file name: text} entry into outdir, then manifest.json listing them all."""
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "master_seed": config.master_seed,
        "nmse_norm": "stacked_euclidean",
        "outputs": sorted([*files, "manifest.json"]),
    }
    for name, text in [*files.items(), ("manifest.json", _json(manifest))]:
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_planned_outputs(outdir: str, planned: PlannedExperiment, files: dict[str, str]) -> int:
    """Write a planning command's files and plan_report.json; 2 if the plan did not converge."""
    plan_report = {
        **dataclasses.asdict(planned.report),
        "config_hash": config_hash(planned.config),
        "tool_version": __version__,
    }
    _write_outputs(outdir, planned.config, {**files, "plan_report.json": _json(plan_report)})
    return 0 if planned.report.converged else 2


def _load(args) -> ExperimentConfig:
    """Config from --config (or the bundled default) with the --seed override."""
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed", "must fit in 64 bits")
        config = dataclasses.replace(config, master_seed=args.seed)
    return config


def cmd_plan(args) -> int:
    planned = plan_experiment(_load(args))
    policy = planned.policy
    files = {
        "trajectory.csv": _trajectory_csv(policy.nominal),
        "gains.csv": _matrix_stack_csv("l", policy.gains),
        "riccati.csv": _matrix_stack_csv("p", policy.riccati),
    }
    return _write_planned_outputs(args.out, planned, files)


def cmd_sweep(args) -> int:
    planned = plan_experiment(_load(args))
    grid = epsilon_grid(*FULL_GRID) if args.full_grid else None
    header = ["epsilon", "avg_nmse_closed_pct", "avg_nmse_open_pct", "sd_closed", "sd_open", "n_runs"]
    rows = [
        [r.epsilon, r.avg_nmse_closed, r.avg_nmse_open, r.sd_closed, r.sd_open, r.n_runs]
        for r in run_sweep(planned, modes=_MODE_CHOICES[args.mode], grid=grid)
    ]
    return _write_planned_outputs(args.out, planned, {"sweep.csv": _csv(header, rows)})


def cmd_ldp(args) -> int:
    planned = plan_experiment(_load(args))
    estimates, fit = run_exit_study(planned)
    header = ["epsilon", "delta", "n_runs", "n_exits", "p_hat", "wilson_lo", "wilson_hi"]
    rows = [
        [e.epsilon, e.delta, e.n_runs, e.n_exits, e.p_hat, e.wilson_low, e.wilson_high]
        for e in estimates
    ]
    fit_dict = dataclasses.asdict(fit) if fit is not None else None
    files = {
        "ldp.csv": _csv(header, rows),
        "ratefit.json": _json({"fit": fit_dict, "delta": planned.config.ldp.delta}),
    }
    return _write_planned_outputs(args.out, planned, files)


def cmd_verify(args) -> int:
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
        verify_report = {"passed": all_passed, "suites": [r.as_dict() for r in reports]}
        _write_outputs(args.out, config, {"verify_report.json": _json(verify_report)})
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
