import json
import re
from pathlib import Path

import pytest

import tlqr
from tlqr.cli import main
from tlqr.config import canonical_json, default_config, parse_config


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


def test_verify_zero_controls_fails_variance_check(tmp_path, capsys):
    # With the goal at the start every planned control is zero, so the noise
    # scale and the closed-form cost-error variance are zero.
    data = small_config_dict()
    data["x_g"] = data["x0"]
    path = tmp_path / "stay.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", "--config", str(path), "--suite", "costerror"]) == 2
    out = capsys.readouterr().out
    assert "FAIL costerror.variance_vs_closed_form_rel: value=nan" in out
    assert "CHECKS FAILED" in out


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
