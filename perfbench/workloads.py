"""The three benchmark workloads: CLI arguments and output checks.

Each workload is one ``tlqr`` CLI command on ``configs/car.json``. The
workload seed is passed as ``--seed``, which becomes the config's
``master_seed``; nothing else about the inputs changes, so the planner always
solves the reference problem (perturbed goals can hit ``max_iters`` and make
``plan`` exit 2).

The checks read only the files and text the command produced and compare
them with ``reference.json`` (written by ``make_reference.py``) at the
tolerances below. ``plan`` does not use the seed, so its outputs are compared
value by value. ``sweep`` and the statistical ``verify`` suites depend on the
seed, so they are compared through statistics with a standard error, at
``Z_TOL`` standard errors.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import os
from pathlib import Path

import numpy as np

CONFIG = "configs/car.json"
REFERENCE = Path(__file__).with_name("reference.json")

ARGS = {
    "plan": ["plan"],
    "sweep_full": ["sweep", "--full-grid", "--mode", "both"],
    "verify": ["verify", "--suite", "all"],
}
# CLI calls per timed pass. Each pass is scaled by the host speed sampled
# during it (worker.py, every 0.2 s): ten 0.5 s plan calls give it about 25
# samples, as one 10-20 s sweep or verify call does 50-100.
CALLS_PER_PASS = {"plan": 10, "sweep_full": 1, "verify": 1}

# Outputs of the reference problem, compared value by value: any optimizer
# that reaches the same nominal (cost 0.16028) to the planner tolerance
# agrees far inside these.
PLAN_COST_REL_TOL = 1e-4
PLAN_ARRAY_TOL = 1e-4  # max abs difference / max(1, max abs reference value)
DYNAMICS_TOL = 1e-8  # Euler re-roll residual of trajectory.csv (12 digits written)
# Acceptance criterion 5.
GOAL_POS_TOL = 0.05
GOAL_HEADING_TOL = 0.1
# Seed-dependent statistics: allowed distance from the reference mean in
# combined standard errors.
Z_TOL = 6.0
SWEEP_BLOCK = 10  # consecutive epsilons pooled per sweep comparison
# Above eps = 0.1 the steering clamp saturates near phi = pi/2 and single
# closed-loop runs can diverge (NMSE up to 1e29 from eps = 0.129 at HEAD), so
# closed-loop means there carry no usable standard error. Criterion 7 and the
# closed-loop reference comparison use eps <= 0.1, the range criterion 6 fits.
CLOSED_EPS_MAX = 0.1
COSTERROR_SD_REL_TOL = 0.03  # sampling error of the sd at n = 100k is 0.22 %
FULL_GRID_SIZE = 150
SWEEP_HEADER = ["epsilon", "avg_nmse_closed_pct", "avg_nmse_open_pct", "sd_closed", "sd_open", "n_runs"]
DATA_IGNORED = {"manifest.json"}  # the one artifact allowed to differ between runs
COMPARE = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def argv(workload: str, seed: int, outdir: str) -> list[str]:
    return ARGS[workload] + ["--config", CONFIG, "--seed", str(seed), "--out", outdir]


def digests(outdir: str) -> dict[str, str]:
    """sha256 of every data artifact (everything but the manifest)."""
    return {
        name: hashlib.sha256(Path(outdir, name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(outdir))
        if name not in DATA_IGNORED
    }


def bytes_written(outdir: str) -> int:
    return sum(Path(outdir, name).stat().st_size for name in os.listdir(outdir))


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


# -- statistics, written out here so the checks share no code with tlqr --


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def sweep_blocks(table: np.ndarray, mode: str) -> list[tuple[float, float]]:
    """(mean, standard error) of NMSE / eps^2 over blocks of SWEEP_BLOCK rows.

    Closed-loop blocks stop at CLOSED_EPS_MAX.
    """
    avg_col, sd_col = (1, 3) if mode == "closed" else (2, 4)
    if mode == "closed":
        table = table[table[:, 0] <= CLOSED_EPS_MAX + 1e-12]
    eps2 = table[:, 0] ** 2
    scaled = table[:, avg_col] / eps2
    se = table[:, sd_col] / eps2 / np.sqrt(table[:, 5])
    out = []
    for b in range(0, len(table), SWEEP_BLOCK):
        n = len(scaled[b : b + SWEEP_BLOCK])
        out.append(
            (
                float(scaled[b : b + SWEEP_BLOCK].mean()),
                float(np.sqrt(np.sum(se[b : b + SWEEP_BLOCK] ** 2)) / n),
            )
        )
    return out


# -- checks ---------------------------------------------------------------


def _check_manifest(outdir: Path, seed: int, errors: list[str]) -> None:
    path = outdir / "manifest.json"
    if not path.is_file():
        errors.append("manifest.json missing")
        return
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("master_seed") != seed:
        errors.append(f"manifest master_seed {manifest.get('master_seed')} != {seed}")
    if sorted(manifest.get("outputs", [])) != sorted(os.listdir(outdir)):
        errors.append("manifest outputs do not match the files written")


def _check_plan_report(outdir: Path, ref: dict, errors: list[str]) -> None:
    report = json.loads((outdir / "plan_report.json").read_text(encoding="utf-8"))
    if report.get("converged") is not True:
        errors.append("planner did not converge")
    if not report.get("terminal_position_error", math.inf) <= GOAL_POS_TOL:
        errors.append(f"terminal position error {report.get('terminal_position_error')} > {GOAL_POS_TOL}")
    if not report.get("terminal_heading_error", math.inf) <= GOAL_HEADING_TOL:
        errors.append(f"terminal heading error {report.get('terminal_heading_error')} > {GOAL_HEADING_TOL}")
    cost, ref_cost = report.get("final_cost", math.nan), ref["final_cost"]
    if not abs(cost - ref_cost) <= PLAN_COST_REL_TOL * abs(ref_cost):
        errors.append(f"final cost {cost} differs from reference {ref_cost}")


def _compare_array(name: str, got: np.ndarray, want: list, errors: list[str]) -> None:
    want = np.array(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{name}: shape {got.shape} != reference {want.shape}")
        return
    finite = np.isfinite(want)
    if not np.array_equal(finite, np.isfinite(got)):
        errors.append(f"{name}: NaN pattern differs from reference")
        return
    scale = max(1.0, float(np.abs(want[finite]).max()))
    diff = float(np.abs(got[finite] - want[finite]).max())
    if not diff <= PLAN_ARRAY_TOL * scale:
        errors.append(f"{name}: max abs difference {diff:.3g} from reference")


def _check_trajectory_dynamics(traj: np.ndarray, model: dict, errors: list[str]) -> None:
    """Re-roll the Euler car model through the written controls."""
    states, v, phi = traj[:, 1:4], traj[:-1, 4], traj[:-1, 5]
    theta = states[:-1, 2]
    drift = np.stack([v * np.cos(theta), v * np.sin(theta), v / model["wheelbase"] * np.tan(phi)], axis=1)
    resid = float(np.abs(states[:-1] + model["dt"] * drift - states[1:]).max())
    if not resid <= DYNAMICS_TOL:
        errors.append(f"trajectory.csv violates the car dynamics by {resid:.3g}")
    if np.abs(v).max() > model["v_max"] or np.abs(phi).max() >= model["phi_max"]:
        errors.append("trajectory.csv controls exceed the model bounds")


def check_plan(outdir: Path, seed: int, stdout: str, ref: dict, model: dict) -> list[str]:
    errors: list[str] = []
    _check_manifest(outdir, seed, errors)
    _check_plan_report(outdir, ref["plan"], errors)
    for name in ("trajectory", "gains", "riccati"):
        _, table = read_csv(outdir / f"{name}.csv")
        _compare_array(f"{name}.csv", table, ref["plan"][name], errors)
        if name == "trajectory" and table.shape[1] == 6:
            _check_trajectory_dynamics(table, model, errors)
    return errors


def check_sweep_full(outdir: Path, seed: int, stdout: str, ref: dict, model: dict) -> list[str]:
    errors: list[str] = []
    _check_manifest(outdir, seed, errors)
    _check_plan_report(outdir, ref["plan"], errors)
    header, table = read_csv(outdir / "sweep.csv")
    if header != SWEEP_HEADER or table.shape != (FULL_GRID_SIZE, len(SWEEP_HEADER)):
        return errors + [f"sweep.csv has header {header} and shape {table.shape}"]
    eps = table[:, 0]
    if not np.allclose(eps, 0.001 * np.arange(1, FULL_GRID_SIZE + 1), rtol=0, atol=1e-12):
        errors.append("sweep.csv epsilons are not the full grid 0.001..0.150")
    if not np.all(table[:, 5] == ref["sweep_full"]["n_runs"]):
        errors.append("sweep.csv n_runs differs from the configured runs per epsilon")
    if not (np.all(np.isfinite(table[:, 1:5])) and np.all(table[:, 1:5] > 0)):
        errors.append("sweep.csv has non-finite or non-positive NMSE values")
        return errors
    closed, opened = table[:, 1], table[:, 2]
    # Acceptance criterion 6: closed-loop NMSE grows like eps^2.
    small = eps <= CLOSED_EPS_MAX + 1e-12
    rho = spearman(eps, closed)
    decay = slope(np.log(eps[small]), np.log(closed[small]))
    if not (closed[0] < closed[-1] and rho >= 0.95 and 1.5 <= decay <= 2.5):
        errors.append(f"criterion 6 fails: spearman {rho:.3f}, log-log slope {decay:.2f}")
    # Acceptance criterion 7: closed loop below open loop, here on [0.02, 0.1].
    usable = (eps >= 0.02 - 1e-12) & (eps <= CLOSED_EPS_MAX + 1e-12)
    ratio = float(np.exp(np.mean(np.log(closed[usable] / opened[usable]))))
    if not (np.all(closed[usable] <= opened[usable]) and ratio <= 0.8):
        errors.append(f"criterion 7 fails: closed/open ratio {ratio:.3f}")
    for mode in ("closed", "open"):
        z = [
            (mean - ref_mean) / math.hypot(se, ref_se)
            for (mean, se), (ref_mean, ref_se) in zip(sweep_blocks(table, mode), ref["sweep_full"][mode])
        ]
        worst = max(range(len(z)), key=lambda i: abs(z[i]))
        if not abs(z[worst]) <= Z_TOL:
            errors.append(f"{mode} NMSE/eps^2 block {worst} is {z[worst]:.1f} standard errors from the reference")
        # The blocks are independent, so their z sum to N(0, blocks): this
        # catches a small shift of the whole curve that no single block shows.
        pooled = sum(z) / math.sqrt(len(z))
        if not abs(pooled) <= Z_TOL:
            errors.append(f"{mode} NMSE/eps^2 curve is {pooled:.1f} standard errors from the reference")
    return errors


def check_verify(outdir: Path, seed: int, stdout: str, ref: dict, model: dict) -> list[str]:
    errors: list[str] = []
    ref = ref["verify"]
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines or lines[-1] != "verify: all checks passed":
        errors.append(f"verify summary line is {lines[-1] if lines else None!r}")
    printed = [line.split(":", 1)[0].split(" ", 1) for line in lines[:-1]]
    if any(status != "PASS" for status, _ in printed):
        errors.append("verify printed a line other than PASS")
    names = [name for _, name in printed]
    if names != ref["checks"]:
        errors.append(f"verify printed checks {names}, expected {ref['checks']}")
    report = json.loads((outdir / "verify_report.json").read_text(encoding="utf-8"))
    values = {}
    for suite in report.get("suites", []):
        for check in suite["checks"]:
            name = f"{suite['suite']}.{check['name']}"
            values[name] = check["value"]
            if not COMPARE[check["op"]](check["value"], check["bound"]):
                errors.append(f"{name}: {check['value']} {check['op']} {check['bound']} is false")
    if report.get("passed") is not True or sorted(values) != sorted(ref["checks"]):
        errors.append("verify_report.json does not report every check passed")
    details = next((s.get("details") for s in report.get("suites", []) if s["suite"] == "costerror"), None)
    sd = (details or {}).get("sd", math.nan)
    if not abs(sd / ref["costerror_sd"] - 1.0) <= COSTERROR_SD_REL_TOL:
        errors.append(f"cost-error sd {sd} differs from reference {ref['costerror_sd']}")
    fit = values.get("ldp.rate_fit_slope", math.nan)
    z = abs(fit - ref["ldp_slope_mean"]) / ref["ldp_slope_sd"]
    if not z <= Z_TOL:
        errors.append(f"exit-rate slope {fit} vs reference {ref['ldp_slope_mean']} (z={z:.1f})")
    return errors


CHECKS = {"plan": check_plan, "sweep_full": check_sweep_full, "verify": check_verify}


def check(workload: str, outdir: str, code, stdout: str, seed: int, ref: dict, model: dict) -> list[str]:
    """Every way the pass's outputs differ from what HEAD is known to produce."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return CHECKS[workload](Path(outdir), seed, stdout, ref, model)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
