import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tlqr.config import (
    FULL_GRID,
    MAX_HORIZON,
    MAX_RUNS,
    canonical_json,
    config_hash,
    default_config,
    epsilon_grid,
    load_config,
    parse_config,
)
from tlqr.exceptions import ConfigError


def test_default_config_round_trips():
    config = default_config()
    again = parse_config(config.to_dict())
    assert again == config
    assert config_hash(again) == config_hash(config)


def test_omitted_optional_keys_take_dataclass_defaults():
    data = default_config().to_dict()
    del data["model"]["integrator"]
    del data["planner"]["tolerance"]
    del data["planner"]["max_iters"]
    assert parse_config(data) == default_config()


def test_committed_config_is_the_default():
    committed = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "car.json"))
    assert committed == default_config()
    assert config_hash(committed) == config_hash(default_config())


def test_canonical_json_is_key_order_independent():
    config = default_config()
    data = config.to_dict()
    shuffled = json.loads(json.dumps(data))  # dict order preserved; rebuild reversed
    shuffled = dict(reversed(list(shuffled.items())))
    assert config_hash(parse_config(shuffled)) == config_hash(config)


def test_hash_changes_with_content():
    config = default_config()
    other = dataclasses.replace(config, master_seed=config.master_seed + 1)
    assert config_hash(other) != config_hash(config)


def test_unknown_key_rejected():
    data = default_config().to_dict()
    data["extra"] = 1
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == "extra"


def test_unknown_nested_key_rejected():
    data = default_config().to_dict()
    data["planner"]["typo"] = 2
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == "planner.typo"


def test_zero_horizon_names_field():
    data = default_config().to_dict()
    data["horizon"] = 0
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == "horizon"


@pytest.mark.parametrize(
    "section,key,value,field",
    [
        ("model", "dt", 0.0, "model.dt"),
        ("model", "phi_max", 3.0, "model.phi_max"),
        ("model", "name", "boat", "model.name"),
        ("planner", "r_u", -1.0, "planner.r_u"),
        ("sweep", "eps_start", 0.0, "sweep.eps_start"),
        ("sweep", "n_runs", 0, "sweep.n_runs"),
        ("ldp", "delta", 0.0, "ldp.delta"),
        ("lqr", "wu", [1.0, 0.0], "lqr.wu"),
        ("model", "wheelbase", math.nan, "model.wheelbase"),
        ("planner", "tolerance", math.nan, "planner.tolerance"),
        ("sweep", "eps_end", math.inf, "sweep.eps_end"),
        ("ldp", "delta", math.inf, "ldp.delta"),
        ("lqr", "wx", [1.0, math.nan, 1.0], "lqr.wx"),
        ("ldp", "eps_grid", [0.03, -math.inf], "ldp.eps_grid"),
        pytest.param("model", "v_max", 10**400, "model.v_max", id="model-v_max-int_overflow"),
        pytest.param("sweep", "n_runs", MAX_RUNS + 1, "sweep.n_runs", id="sweep-n_runs-above_max"),
        pytest.param("ldp", "n_runs", 2**33, "ldp.n_runs", id="ldp-n_runs-2**33"),
        ("model", "integrator", "rk4", "model.integrator"),
        ("model", "v_max", 0.0, "model.v_max"),
        ("planner", "tolerance", 0.0, "planner.tolerance"),
        ("planner", "max_iters", 0, "planner.max_iters"),
    ],
)
def test_out_of_domain_fields_rejected(section, key, value, field):
    data = default_config().to_dict()
    data[section][key] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == field


@pytest.mark.parametrize("data", [[], "car", None], ids=["array", "string", "null"])
def test_top_level_must_be_an_object(data):
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == "<root>"


def test_missing_key_rejected():
    data = default_config().to_dict()
    del data["sweep"]["n_runs"]
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == "sweep.n_runs"


@pytest.mark.parametrize("horizon", [MAX_HORIZON + 1, 2**63, 10**30])
def test_horizon_numpy_cannot_describe_names_the_bound(horizon):
    data = default_config().to_dict()
    data["horizon"] = horizon
    with pytest.raises(ConfigError, match=f"\\[1, {MAX_HORIZON}\\]") as exc:
        parse_config(data)
    assert exc.value.field == "horizon"
    data["horizon"] = MAX_HORIZON
    assert parse_config(data).horizon == MAX_HORIZON
    # The cap: states of MAX_RUNS runs at the bound still fit numpy's array size limit.
    assert MAX_RUNS * (MAX_HORIZON + 1) * 3 * 8 <= np.iinfo(np.intp).max
    assert MAX_RUNS * (MAX_HORIZON + 2) * 3 * 8 > np.iinfo(np.intp).max


@pytest.mark.parametrize("eps_step", [1e-300, 5e-324, 0.14 / (2 * MAX_RUNS)])
def test_sweep_grid_beyond_one_seed_word_rejected(eps_step):
    data = default_config().to_dict()
    data["sweep"].update(eps_start=0.01, eps_end=0.15, eps_step=eps_step)
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == "sweep.eps_step"


@pytest.mark.parametrize(
    "sweep,field",
    [
        pytest.param(
            dict(eps_start=0.01, eps_step=1e-13, eps_end=0.010000000001),
            "sweep.eps_step",
            id="points_merge",
        ),
        pytest.param(dict(eps_start=1e-13), "sweep.eps_start", id="start_rounds_to_zero"),
        pytest.param(
            dict(eps_start=0.01, eps_step=1e299, eps_end=1e300),
            "sweep.eps_end",
            id="rounding_overflows",
        ),
    ],
)
def test_sweep_grid_that_rounding_breaks_rejected(sweep, field):
    # epsilon_grid rounds to 12 decimals; these grids would pass planning and then fail the sweep.
    data = default_config().to_dict()
    data["sweep"].update(sweep)
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == field


@pytest.mark.parametrize("section", [None, "planner"])
def test_duplicate_json_key_rejected(tmp_path, section):
    # A later duplicate wins in plain json.load: horizon 5, and r_u 0.1 over 0.5.
    single = canonical_json(default_config())
    if section is None:
        text = single.replace('"horizon":20', '"horizon":20,"horizon":5')
    else:
        text = single.replace('"planner":{', '"planner":{"r_u":0.5,')
    assert text != single
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert exc.value.field == ("horizon" if section is None else "r_u")


def test_wrong_type_rejected():
    data = default_config().to_dict()
    data["horizon"] = 2.5
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == "horizon"


def test_epsilon_grid_generation():
    grid = epsilon_grid(0.01, 0.01, 0.15)
    assert len(grid) == 15
    assert grid[0] == 0.01 and grid[-1] == 0.15
    assert np.all(np.diff(grid) > 0)


def test_full_grid_has_150_points():
    grid = epsilon_grid(*FULL_GRID)
    assert len(grid) == 150
    assert grid[0] == 0.001 and grid[-1] == 0.15


def test_epsilon_grid_validation():
    with pytest.raises(ValueError):
        epsilon_grid(0.0, 0.01, 0.1)
    with pytest.raises(ValueError):
        epsilon_grid(0.01, 0.0, 0.1)
    with pytest.raises(ValueError):
        epsilon_grid(0.2, 0.01, 0.1)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": }', encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert "line 1" in str(exc.value)


def test_load_config_file_round_trip(tmp_path):
    config = default_config()
    path = tmp_path / "config.json"
    path.write_text(canonical_json(config), encoding="utf-8")
    assert load_config(str(path)) == config


def test_default_config_reference_values():
    config = default_config()
    assert config.x0 == (-1.5, 0.5, 0.0)
    assert config.x_g == (-0.5, 1.0, 0.0)
    assert config.horizon == 20
    assert config.model.dt == 0.7
    assert config.model.v_max == 0.6
    assert config.model.phi_max == math.pi / 2
