import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tlqr
from tlqr import cli, experiments
from tlqr.cli import main
from tlqr.config import MAX_HORIZON, canonical_json, default_config, parse_config
from tlqr.experiments import RunStats
from tlqr.large_deviations import RateFit


def small_config_dict(**overrides):
    data = default_config().to_dict()
    data["sweep"] = {"eps_start": 0.02, "eps_step": 0.02, "eps_end": 0.06, "n_runs": 5}
    data["ldp"] = {"delta": 0.3, "eps_grid": [0.04, 0.05, 0.06], "n_runs": 60}
    data.update(overrides)
    return data


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config_dict()), encoding="utf-8")
    return str(path)


def read_artifacts(outdir):
    """All artifact files except the (timestamped) manifest."""
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(outdir).iterdir())
        if p.name != "manifest.json"
    }


def test_plan_writes_artifacts_and_exits_zero(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["plan", "--config", config_path, "--out", str(out)]) == 0
    for name in ("trajectory.csv", "gains.csv", "riccati.csv", "plan_report.json", "manifest.json"):
        assert (out / name).exists()
    report = json.loads((out / "plan_report.json").read_text())
    assert report["converged"] is True
    assert report["terminal_position_error"] <= 0.05
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_plan_never_loads_numpy_random(config_path, tmp_path):
    # Importing numpy.random costs about 9 ms and 2 MB, and plan draws no noise.
    argv = ["plan", "--config", config_path, "--out", str(tmp_path / "out")]
    script = (
        "import sys, tlqr, tlqr.cli\n"
        f"assert tlqr.cli.main({argv!r}) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tlqr.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["plan", "sweep", "ldp"])
def test_planning_commands_never_load_verify(config_path, tmp_path, command):
    # Only `verify` runs the suites, so only it loads them and the cost-error analysis.
    argv = [command, "--config", config_path, "--out", str(tmp_path / "out")]
    script = (
        "import sys, tlqr, tlqr.cli\n"
        f"assert tlqr.cli.main({argv!r}) == 0\n"
        "print(sorted({'tlqr.verify', 'tlqr.error_analysis'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tlqr.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[]"


def test_package_import_loads_only_what_it_needs():
    # Each name is imported from its defining module; the package and the
    # config schema load nothing they do not use.
    script = (
        "import json, sys\n"
        "import tlqr\n"
        "package = sorted(m for m in sys.modules if m.startswith('tlqr.'))\n"
        "public = sorted(n for n in vars(tlqr) if not n.startswith('_'))\n"
        "import tlqr.config\n"
        "config = sorted(m for m in sys.modules if m.startswith('tlqr.'))\n"
        "print(json.dumps([package, public, config, tlqr.__version__]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tlqr.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    package, public, config, version = json.loads(result.stdout)
    assert package == []
    assert public == []
    assert config == ["tlqr.config", "tlqr.exceptions"]
    assert version == tlqr.__version__


def test_plan_rejects_zero_horizon(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(small_config_dict(horizon=0)), encoding="utf-8")
    assert main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "horizon" in capsys.readouterr().err


def test_plan_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    data = small_config_dict()
    data["sweeep"] = data.pop("sweep")
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "sweeep" in capsys.readouterr().err


def test_plan_rejects_non_finite_config_number(tmp_path, capsys):
    # json.dumps writes the float NaN as the bare token NaN, which json.load reads back.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(small_config_dict(x0=[float("nan"), 0.5, 0.0])), encoding="utf-8")
    assert main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "x0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["plan"], ["sweep"], ["ldp"], ["verify", "--suite", "riccati"]]
)
def test_non_utf8_config_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff" + json.dumps(small_config_dict()).encode("utf-8"))
    assert main(command + ["--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_its_range_is_one_error_line(config_path, tmp_path, capsys, seed):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(small_config_dict(master_seed=seed)), encoding="utf-8")
    out = str(tmp_path / "o")
    for argv, field in (
        (["--config", config_path, "--seed", str(seed)], "--seed"),
        (["--config", str(path)], "master_seed"),
    ):
        assert main(["sweep", *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config field '{field}': must lie in [0, 2**64 - 1], got {seed}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_edges_run(config_path, tmp_path, seed):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(small_config_dict(master_seed=seed)), encoding="utf-8")
    runs = {"flag": ["--config", config_path, "--seed", str(seed)], "file": ["--config", str(path)]}
    for name, argv in runs.items():
        assert main(["sweep", *argv, "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["master_seed"] == seed
    assert read_artifacts(tmp_path / "flag") == read_artifacts(tmp_path / "file")


def test_plan_byte_identical_across_runs(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["plan", "--config", config_path, "--out", str(out1)]) == 0
    assert main(["plan", "--config", config_path, "--out", str(out2)]) == 0
    assert read_artifacts(out1) == read_artifacts(out2)


def test_trajectory_csv_schema(config_path, tmp_path):
    out = tmp_path / "out"
    main(["plan", "--config", config_path, "--out", str(out)])
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,theta,v,phi"
    assert len(lines) == 22  # header + K+1 states
    assert lines[-1].split(",")[4] == "nan"  # no control at the terminal step


def test_sweep_csv_schema_and_rows(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,avg_nmse_closed_pct,avg_nmse_open_pct,sd_closed,sd_open,n_runs"
    assert len(lines) == 4  # header + three grid points
    assert lines[1].split(",")[0] == "0.02"


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_sweep_closed_mode_nan_sentinel(config_path, tmp_path, mode):
    out = tmp_path / "out"
    assert main(["sweep", "--config", config_path, "--out", str(out), "--mode", mode]) == 0
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    closed, open_ = (row[1], row[3]), (row[2], row[4])  # (avg, sd) of each mode
    kept, blank = (closed, open_) if mode == "closed" else (open_, closed)
    assert blank == ("nan", "nan")
    assert "nan" not in kept


def test_sweep_seed_override_changes_noise(config_path, tmp_path):
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    assert main(["sweep", "--config", config_path, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["sweep", "--config", config_path, "--out", str(out2), "--seed", "8"]) == 0
    assert main(["sweep", "--config", config_path, "--out", str(out3), "--seed", "7"]) == 0
    assert read_artifacts(out1)["sweep.csv"] != read_artifacts(out2)["sweep.csv"]
    assert read_artifacts(out1)["sweep.csv"] == read_artifacts(out3)["sweep.csv"]


def test_sweep_full_grid_flag(tmp_path):
    path = tmp_path / "tiny.json"
    data = small_config_dict()
    data["sweep"]["n_runs"] = 2
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--full-grid"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 151  # header + the fine 150-point grid


def test_sweep_zero_norm_nominal_exits_two(tmp_path, capsys):
    # With x0 = x_g = 0 every planned state is zero, so the NMSE has no denominator.
    path = tmp_path / "origin.json"
    data = small_config_dict(x0=[0.0, 0.0, 0.0], x_g=[0.0, 0.0, 0.0])
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero norm" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("epsilon", [1e150, 1e296])
def test_overflowed_sweep_row_exits_two_before_writing(tmp_path, capsys, epsilon):
    # A grid parse_config accepts, at which the runs overflow the NMSE.
    data = small_config_dict()
    data["sweep"] = {"eps_start": epsilon, "eps_step": 0.01, "eps_end": epsilon, "n_runs": 3}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: closed_loop NMSE at epsilon {epsilon:.12g} is not finite")
    assert len(err.splitlines()) == 1
    assert not out.exists() or not any(out.iterdir())


def test_ldp_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["ldp", "--config", config_path, "--out", str(out)]) == 0
    lines = (out / "ldp.csv").read_text().splitlines()
    assert lines[0] == "epsilon,delta,n_runs,n_exits,p_hat,wilson_lo,wilson_hi"
    assert len(lines) == 4
    fit = json.loads((out / "ratefit.json").read_text())["fit"]
    assert fit is not None and fit["slope"] < 0


def test_ldp_too_few_estimates_writes_null_fit(tmp_path):
    # Two grid points leave fewer than the three estimates a rate fit needs.
    data = small_config_dict()
    data["ldp"]["eps_grid"] = [0.04, 0.05]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ldp", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "ratefit.json").read_text()) == {"delta": 0.3, "fit": None}


def test_verify_riccati_suite(config_path, capsys):
    assert main(["verify", "--config", config_path, "--suite", "riccati"]) == 0
    out = capsys.readouterr().out
    assert "PASS riccati.scalar_fixture_p_abs" in out
    assert "all checks passed" in out


def test_verify_unknown_suite(config_path, capsys):
    assert main(["verify", "--config", config_path, "--suite", "bogus"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_writes_report(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--config", config_path, "--suite", "riccati", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["suites"][0]["suite"] == "riccati"


@pytest.mark.parametrize(
    "command", [["plan"], ["sweep"], ["ldp"], ["verify", "--suite", "riccati"]]
)
def test_manifest_lists_exactly_the_files_written(config_path, tmp_path, command):
    out = tmp_path / "out"
    assert main(command + ["--config", config_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(p.name for p in out.iterdir())


def test_reused_out_directory_manifest_lists_only_this_run(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["plan", "--config", config_path, "--out", str(out)]) == 0
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["manifest.json", "plan_report.json", "sweep.csv"]
    # The plan's own files stay, unlisted, and its manifest is replaced.
    plan_only = {"trajectory.csv", "gains.csv", "riccati.csv"}
    assert {p.name for p in out.iterdir()} == plan_only | set(manifest["outputs"])
    assert set(manifest["stats"]["stage_s"]) == {"plan", "sweep", "write"}


@pytest.mark.parametrize(
    "command, stages",
    [
        (["plan"], {"plan", "write"}),
        (["sweep"], {"plan", "sweep", "write"}),
        (["ldp"], {"plan", "ldp", "write"}),
        (["verify", "--suite", "ldp"], {"plan", "ldp", "write"}),
        (["verify", "--suite", "riccati"], {"riccati", "write"}),
    ],
)
def test_manifest_records_stage_seconds_and_planner_work(config_path, tmp_path, command, stages):
    out = tmp_path / "out"
    assert main(command + ["--config", config_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    kernels = manifest["kernels"]
    assert kernels == cli.kernel_fingerprint()
    assert set(kernels) == {"numpy", "blas", "simd", "blas_core"}
    assert set(kernels["blas"]) == {"name", "version"}
    stats = manifest["stats"]
    assert set(stats["stage_s"]) == set(stats["stage_cpu_s"]) == stages
    values = list(stats["stage_s"].values()) + list(stats["stage_cpu_s"].values())
    if "plan" in stages:
        planner = stats["planner"]
        assert set(planner) == {"iterations", "seconds", "cpu_seconds", "ms_per_iter"}
        assert planner["cpu_seconds"] <= stats["stage_cpu_s"]["plan"]
        assert isinstance(planner["iterations"], int)
        if command[0] != "verify":
            report = json.loads((out / "plan_report.json").read_text())
            assert planner["iterations"] == report["iterations"]
        values += planner.values()
    else:
        assert "planner" not in stats
    assert all(math.isfinite(v) and v >= 0 for v in values)


def test_kernel_fingerprint_names_none_where_numpy_cannot_report(monkeypatch):
    # numpy before 1.26 has show_config() without a mode, and prints only.
    monkeypatch.setattr(cli.np, "show_config", lambda: None)
    kernels = cli.kernel_fingerprint.__wrapped__()
    assert kernels["blas"] == {"name": None, "version": None}
    assert kernels["simd"] is None


def test_run_stats_add_re_entered_stages_and_divide_planner_seconds(monkeypatch):
    clock = iter([1.0, 3.5, 10.0, 10.25])
    cpu_clock = iter([2.0, 3.0, 4.0, 4.5])
    monkeypatch.setattr(experiments.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(experiments.time, "process_time", lambda: next(cpu_clock))
    stats = RunStats()
    for _ in range(2):
        with stats.stage("sweep"):
            pass
    stats.planner_iterations, stats.planner_seconds, stats.planner_cpu_seconds = 8, 0.5, 0.25
    # ms_per_iter is 1e3 * 0.5 / 8, from the wall seconds.
    planner = {"iterations": 8, "seconds": 0.5, "cpu_seconds": 0.25, "ms_per_iter": 62.5}
    expected = {"stage_s": {"sweep": 2.75}, "stage_cpu_s": {"sweep": 1.5}, "planner": planner}
    assert stats.as_dict() == expected
    stats.planner_iterations = 0
    assert stats.as_dict()["planner"]["ms_per_iter"] == 0.0


def test_verify_zero_controls_fails_variance_check(tmp_path, capsys):
    # With the goal at the start every planned control is zero, so the noise
    # scale and the closed-form cost-error variance are zero.
    data = small_config_dict()
    data["x_g"] = data["x0"]
    path = tmp_path / "stay.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["verify", "--config", str(path), "--suite", "costerror", "--out", str(out_dir)]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "FAIL costerror.variance_vs_closed_form_rel: value=nan" in out
    assert "CHECKS FAILED" in out

    # The report is strict JSON: the NaN value is null, and the check fails.
    def reject(token):
        raise ValueError(f"verify_report.json holds {token}")

    text = (out_dir / "verify_report.json").read_text(encoding="utf-8")
    (suite,) = json.loads(text, parse_constant=reject)["suites"]
    check = next(c for c in suite["checks"] if c["name"] == "variance_vs_closed_form_rel")
    assert check["value"] is None and check["passed"] is False


def test_non_finite_json_value_exits_two_before_writing(config_path, tmp_path, capsys, monkeypatch):
    def infinite_fit(planned):
        return [], RateFit(slope=math.inf, intercept=0.0, r_squared=1.0, n_used=3)

    monkeypatch.setattr(cli, "run_exit_study", infinite_fit)
    out = tmp_path / "out"
    assert main(["ldp", "--config", config_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an artifact value is not finite") and err.count("\n") == 1
    assert not out.exists()


def test_verify_ldp_zero_controls_keeps_zero_nominal_action(tmp_path, capsys):
    # With x0 = x_g = 0 every planned control is zero, so the action's noise
    # scale is zero; the nominal path still has action 0 and the empty exit
    # study fails its checks.
    path = tmp_path / "origin.json"
    data = small_config_dict(x0=[0.0, 0.0, 0.0], x_g=[0.0, 0.0, 0.0])
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", "--config", str(path), "--suite", "ldp"]) == 2
    out = capsys.readouterr().out
    assert "PASS ldp.nominal_path_action: value=0 <= bound=0" in out
    assert "CHECKS FAILED" in out


def test_output_path_collision_exit3(config_path, tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied", encoding="utf-8")
    assert main(["plan", "--config", config_path, "--out", str(blocker)]) == 3


def test_package_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == tlqr.__version__


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0
    capsys.readouterr()


def test_plan_rejects_horizon_numpy_cannot_describe(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(small_config_dict(horizon=10**30)), encoding="utf-8")
    assert main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config field 'horizon': must lie in [1, {MAX_HORIZON}]\n"


@pytest.mark.parametrize("command", ["plan", "sweep", "ldp"])
def test_riccati_overflow_exits_two_before_writing(tmp_path, capsys, command):
    # Finite weights that pass parse_config but overflow the Riccati recursion.
    data = small_config_dict()
    data["lqr"]["wx"] = [1e308, 1e308, 1e308]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: Riccati recursion is not finite at step 19\n"
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["plan", "sweep", "ldp"])
def test_non_convergence_prints_one_line_and_writes_artifacts(tmp_path, capsys, command):
    # Steering capped at 0.1 rad leaves the planner short of the tolerance
    # after max_iters iterations.
    data = small_config_dict()
    data["model"]["phi_max"] = 0.1
    data["planner"]["max_iters"] = 40
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: planner did not converge in 40 iterations "
        r"\(gradient norm \S+, tolerance 1e-06\)\n",
        err,
    )
    report = json.loads((out / "plan_report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 40
    manifest = json.loads((out / "manifest.json").read_text())
    assert "plan_report.json" in manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out / name).exists()


@pytest.mark.parametrize(
    ("suite", "n_checks", "code"), [("costerror", 5, 2), ("ldp", 7, 2), ("riccati", 3, 0)]
)
def test_verify_exits_two_on_unconverged_plan(tmp_path, capsys, suite, n_checks, code):
    # The narrow config of the test above: a suite that verifies the plan
    # reports every check and writes its report, then fails on the planner's
    # line; the riccati suite needs no plan.
    data = small_config_dict()
    data["model"]["phi_max"] = 0.1
    data["planner"]["max_iters"] = 40
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["verify", "--config", str(path), "--suite", suite, "--out", str(out)]) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == n_checks + 1 and lines[-1].startswith("verify: ")
    assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])
    report = json.loads((out / "verify_report.json").read_text())
    assert [r["suite"] for r in report["suites"]] == [suite]
    if code == 0:
        assert captured.err == ""
    else:
        assert re.fullmatch(
            r"error: planner did not converge in 40 iterations "
            r"\(gradient norm \S+, tolerance 1e-06\)\n",
            captured.err,
        )


@pytest.mark.parametrize("weight", ["r_u", "r_g"])
def test_huge_planner_weight_exits_two_without_warnings(tmp_path, capsys, weight):
    # A finite weight that passes parse_config but overflows the planner's
    # gradient. Warnings are errors here, so a numpy RuntimeWarning fails the test.
    data = small_config_dict()
    data["planner"][weight] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["plan", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: cost gradient is not finite\n"
    assert not out.exists() or not any(out.iterdir())


def test_plan_rejects_unsupported_integrator(tmp_path, capsys):
    data = small_config_dict()
    data["model"]["integrator"] = "rk4"
    path = tmp_path / "rk4.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: config field 'model.integrator': unknown integrator 'rk4' (supported: euler)\n"
    )


@pytest.mark.parametrize(
    "command, stage",
    [(["plan"], "plan_experiment"), (["sweep"], "sweep_epsilon"), (["ldp"], "run_exit_study")],
    ids=["command0-plan_experiment", "command1-run_sweep", "command2-run_exit_study"],
)
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command, stage):
    # A configured size too large for memory, without allocating it.
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 GiB for an array")

    monkeypatch.setattr(cli, stage, exhausted)
    assert main(command + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 16.0 GiB for an array\n"


def test_usage_error_exits_one(tmp_path, capsys):
    assert main(["sweep"]) == 1  # missing --out
    assert main(["frobnicate"]) == 1
    assert main(["ldp", "--out", str(tmp_path / "o"), "--threads", "2"]) == 1  # no such option
    capsys.readouterr()


def test_bundled_default_config_used_when_omitted(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--suite", "riccati", "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
