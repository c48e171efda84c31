"""Experiment configuration: strict JSON schema, round-tripping, hashing.

The file format is a single UTF-8 JSON object mirroring
:class:`ExperimentConfig`. The config dataclasses are the schema: their
fields name the keys, and a field with a default names an optional key that
takes that default. Unknown and duplicate keys are errors rather than
warnings so typos cannot silently fall back to defaults or to a later value.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from .exceptions import ConfigError

# Fine sweep grid: 0.001 .. 0.1501 in steps of 0.001.
FULL_GRID = (0.001, 0.001, 0.1501)

# Most runs per row of a Monte Carlo study: a run index fills one uint32 seed word.
MAX_RUNS = 2**32

# Longest horizon, a conservative cap: (MAX_RUNS, K+1, 3) float64 states
# would still fit numpy's intp-max bytes. No batch holds MAX_RUNS runs (the
# Monte Carlo driver steps at most a few thousand per kernel call), but the
# cap keeps every per-call array far inside what numpy can describe.
MAX_HORIZON = np.iinfo(np.intp).max // (MAX_RUNS * 3 * 8) - 1


@dataclass(frozen=True)
class ModelConfig:
    name: str
    wheelbase: float
    dt: float
    v_max: float
    phi_max: float
    integrator: str = "euler"


@dataclass(frozen=True)
class PlannerConfig:
    r_u: float
    r_g: float
    r_b: float
    tolerance: float = 1e-6
    max_iters: int = 500


@dataclass(frozen=True)
class LqrConfig:
    wx: tuple[float, ...]
    wu: tuple[float, ...]


@dataclass(frozen=True)
class SweepConfig:
    eps_start: float
    eps_step: float
    eps_end: float
    n_runs: int


@dataclass(frozen=True)
class LdpConfig:
    delta: float
    eps_grid: tuple[float, ...]
    n_runs: int


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    x0: tuple[float, ...]
    x_g: tuple[float, ...]
    horizon: int
    planner: PlannerConfig
    lqr: LqrConfig
    sweep: SweepConfig
    ldp: LdpConfig
    master_seed: int

    def to_dict(self) -> dict:
        """The config as the JSON object it is read from: vector fields become lists."""
        return json.loads(json.dumps(asdict(self)))


def epsilon_grid(start: float, step: float, end: float) -> np.ndarray:
    """Inclusive arithmetic grid start, start+step, ... up to end."""
    if start <= 0:
        raise ValueError("grid start must be > 0")
    if step <= 0:
        raise ValueError("grid step must be > 0")
    if end < start:
        raise ValueError("grid end must be >= start")
    return _grid_points(start, step, np.arange(_grid_size(start, step, end)))


def _grid_size(start: float, step: float, end: float) -> int:
    return int(math.floor((end - start) / step + 1e-9)) + 1


def _grid_points(start: float, step: float, index: np.ndarray) -> np.ndarray:
    return np.round(start + step * index, 12)


def _expect_keys(d: dict, known: set[str], required: list[str], prefix: str) -> None:
    for key in d:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown key")
    for key in required:
        if key not in d:
            raise ConfigError(f"{prefix}{key}", "missing required key")


def _finite(value: int | float, field: str, what: str) -> float:
    # Python's json admits NaN, Infinity and integers beyond the float range; no field does.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(field, f"{what} is not finite ({number})")
    return number


def _number(d: dict, key: str, prefix: str) -> float:
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{prefix}{key}", f"expected a number, got {type(value).__name__}")
    return _finite(value, f"{prefix}{key}", "value")


def _integer(d: dict, key: str, prefix: str) -> int:
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{prefix}{key}", f"expected an integer, got {type(value).__name__}")
    return value


def _vector(d: dict, key: str, prefix: str) -> tuple[float, ...]:
    value = d[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{prefix}{key}", "expected a nonempty list of numbers")
    out = []
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ConfigError(f"{prefix}{key}", f"entry {i} is not a number")
        out.append(_finite(entry, f"{prefix}{key}", f"entry {i}"))
    return tuple(out)


# Reader of a JSON value by the type of the config field it fills.
_READERS = {float: _number, int: _integer, tuple[float, ...]: _vector}


def _read(cls, d: dict, prefix: str):
    """Build the config dataclass ``cls`` from a JSON object.

    The schema is the dataclass itself: its fields are the known keys, the
    fields without a default are the required ones, and each value is read
    by its field type. A field whose type is itself a config dataclass is a
    nested JSON object. Range checks are left to :func:`parse_config`.
    """
    schema = fields(cls)
    _expect_keys(
        d,
        known={f.name for f in schema},
        required=[f.name for f in schema if f.default is MISSING],
        prefix=prefix,
    )
    types = get_type_hints(cls)
    values = {}
    for f in schema:
        if f.name not in d:
            continue
        kind = types[f.name]
        if is_dataclass(kind):
            if not isinstance(d[f.name], dict):
                raise ConfigError(f"{prefix}{f.name}", "expected a JSON object")
            values[f.name] = _read(kind, d[f.name], f"{prefix}{f.name}.")
        elif kind is str:
            # Text fields are checked against their allowed values in parse_config.
            values[f.name] = d[f.name]
        else:
            values[f.name] = _READERS[kind](d, f.name, prefix)
    return cls(**values)


def check_master_seed(seed: int, field: str = "master_seed") -> None:
    """Raise :class:`ConfigError` naming ``field`` unless the master seed is a u64, 0 <= seed < 2**64.

    The one range check for the config's ``master_seed`` and the CLI's ``--seed``.
    """
    if not 0 <= seed < 2**64:
        raise ConfigError(field, f"must lie in [0, 2**64 - 1], got {seed}")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a plain dict against the schema; raise ConfigError on issues."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    cfg = _read(ExperimentConfig, data, "")

    model = cfg.model
    if model.name != "car":
        raise ConfigError("model.name", f"unknown model '{model.name}' (supported: car)")
    if model.wheelbase <= 0:
        raise ConfigError("model.wheelbase", "must be > 0")
    if model.dt <= 0:
        raise ConfigError("model.dt", "must be > 0")
    if model.v_max <= 0:
        raise ConfigError("model.v_max", "must be > 0")
    if not 0 < model.phi_max <= math.pi / 2:
        raise ConfigError("model.phi_max", "must lie in (0, pi/2]")
    if model.integrator != "euler":
        raise ConfigError(
            "model.integrator", f"unknown integrator '{model.integrator}' (supported: euler)"
        )

    n_x, n_u = 3, 2  # car dimensions
    if len(cfg.x0) != n_x:
        raise ConfigError("x0", f"expected {n_x} entries, got {len(cfg.x0)}")
    if len(cfg.x_g) != n_x:
        raise ConfigError("x_g", f"expected {n_x} entries, got {len(cfg.x_g)}")
    if not 1 <= cfg.horizon <= MAX_HORIZON:
        raise ConfigError("horizon", f"must lie in [1, {MAX_HORIZON}]")
    check_master_seed(cfg.master_seed)

    planner = cfg.planner
    for field_name in ("r_u", "r_g", "r_b"):
        if getattr(planner, field_name) < 0:
            raise ConfigError(f"planner.{field_name}", "must be >= 0")
    if planner.tolerance <= 0:
        raise ConfigError("planner.tolerance", "must be > 0")
    if planner.max_iters < 1:
        raise ConfigError("planner.max_iters", "must be >= 1")

    lqr = cfg.lqr
    if len(lqr.wx) != n_x:
        raise ConfigError("lqr.wx", f"expected {n_x} diagonal entries, got {len(lqr.wx)}")
    if len(lqr.wu) != n_u:
        raise ConfigError("lqr.wu", f"expected {n_u} diagonal entries, got {len(lqr.wu)}")
    if any(w < 0 for w in lqr.wx):
        raise ConfigError("lqr.wx", "entries must be >= 0")
    if any(w <= 0 for w in lqr.wu):
        raise ConfigError("lqr.wu", "entries must be > 0")

    sweep = cfg.sweep
    if sweep.eps_start <= 0:
        raise ConfigError("sweep.eps_start", "must be > 0")
    if sweep.eps_step <= 0:
        raise ConfigError("sweep.eps_step", "must be > 0")
    if sweep.eps_end < sweep.eps_start:
        raise ConfigError("sweep.eps_end", "must be >= eps_start")
    # The sweep numbers its grid points in one uint32 seed word, as it does runs.
    if (sweep.eps_end - sweep.eps_start) / sweep.eps_step + 1e-9 >= MAX_RUNS:
        raise ConfigError("sweep.eps_step", f"the grid must have at most {MAX_RUNS} points")
    # The sweep needs its rounded grid positive, finite and strictly increasing.
    # The ends are checked exactly. Neighbours stay apart when the step exceeds
    # the rounding quantum 1e-12 plus a few ulps of the last point (the grid
    # formula's float error); a step in that margin is rejected even if they differ.
    size = _grid_size(sweep.eps_start, sweep.eps_step, sweep.eps_end)
    with np.errstate(over="ignore"):
        first, last = _grid_points(sweep.eps_start, sweep.eps_step, np.array([0, size - 1]))
    if not 0 < first < math.inf:
        raise ConfigError("sweep.eps_start", f"rounds to {first} at 12 decimals")
    if not last < math.inf:
        raise ConfigError("sweep.eps_end", f"the last grid point rounds to {last} at 12 decimals")
    if size > 1 and not sweep.eps_step > 1e-12 + 8 * np.spacing(last):
        raise ConfigError("sweep.eps_step", "too small to keep grid points apart at 12 decimals")
    if not 1 <= sweep.n_runs <= MAX_RUNS:
        raise ConfigError("sweep.n_runs", f"must lie in [1, {MAX_RUNS}]")

    ldp = cfg.ldp
    if ldp.delta <= 0:
        raise ConfigError("ldp.delta", "must be > 0")
    if any(e <= 0 for e in ldp.eps_grid):
        raise ConfigError("ldp.eps_grid", "entries must be > 0")
    if any(b <= a for a, b in zip(ldp.eps_grid, ldp.eps_grid[1:])):
        raise ConfigError("ldp.eps_grid", "entries must be strictly increasing")
    if not 1 <= ldp.n_runs <= MAX_RUNS:
        raise ConfigError("ldp.n_runs", f"must lie in [1, {MAX_RUNS}]")
    return cfg


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(key, "duplicate key")
        out[key] = value
    return out


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError("<json>", f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except UnicodeDecodeError as exc:
            raise ConfigError("<json>", f"not UTF-8: {exc.reason} at byte {exc.start}")
    return parse_config(data)


def canonical_json(config: ExperimentConfig) -> str:
    """Key-sorted, whitespace-free serialization used for hashing."""
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))


def config_hash(config: ExperimentConfig) -> str:
    """Platform-stable SHA-256 of the canonical serialization."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def default_config() -> ExperimentConfig:
    """Bundled desk-scale car experiment."""
    return ExperimentConfig(
        model=ModelConfig(
            name="car", wheelbase=0.5, dt=0.7, v_max=0.6, phi_max=math.pi / 2
        ),
        x0=(-1.5, 0.5, 0.0),
        x_g=(-0.5, 1.0, 0.0),
        horizon=20,
        planner=PlannerConfig(r_u=0.1, r_g=100.0, r_b=100.0),
        lqr=LqrConfig(wx=(1.0, 1.0, 1.0), wu=(1.0, 1.0)),
        sweep=SweepConfig(eps_start=0.01, eps_step=0.01, eps_end=0.15, n_runs=100),
        ldp=LdpConfig(delta=0.3, eps_grid=(0.03, 0.04, 0.05, 0.06, 0.07), n_runs=2000),
        master_seed=20260810,
    )
