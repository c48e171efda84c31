import dataclasses
import json
import math

import numpy as np
import pytest

from tlqr import ConfigError, config_hash, default_config, epsilon_grid, parse_config
from tlqr.config import FULL_GRID, canonical_json, load_config
from tlqr.simulate import MAX_RUNS


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
    ],
)
def test_out_of_domain_fields_rejected(section, key, value, field):
    data = default_config().to_dict()
    data[section][key] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == field


def test_missing_key_rejected():
    data = default_config().to_dict()
    del data["sweep"]["n_runs"]
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert exc.value.field == "sweep.n_runs"


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
