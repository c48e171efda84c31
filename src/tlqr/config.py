"""Experiment configuration: strict JSON schema, round-tripping, hashing.

The file format is a single UTF-8 JSON object mirroring
:class:`ExperimentConfig`. Unknown keys are errors rather than warnings so
typos cannot silently fall back to defaults.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import ConfigError

# Fine sweep grid: 0.001 .. 0.1501 in steps of 0.001.
FULL_GRID = (0.001, 0.001, 0.1501)


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
        d = asdict(self)
        d["x0"] = list(d["x0"])
        d["x_g"] = list(d["x_g"])
        d["lqr"]["wx"] = list(d["lqr"]["wx"])
        d["lqr"]["wu"] = list(d["lqr"]["wu"])
        d["ldp"]["eps_grid"] = list(d["ldp"]["eps_grid"])
        return d


def epsilon_grid(start: float, step: float, end: float) -> np.ndarray:
    """Inclusive arithmetic grid start, start+step, ... up to end."""
    if start <= 0:
        raise ValueError("grid start must be > 0")
    if step <= 0:
        raise ValueError("grid step must be > 0")
    if end < start:
        raise ValueError("grid end must be >= start")
    count = int(math.floor((end - start) / step + 1e-9)) + 1
    return np.round(start + step * np.arange(count), 12)


def _expect_keys(d: dict, known: set[str], required: set[str], prefix: str) -> None:
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


def _parse_model(d: dict) -> ModelConfig:
    prefix = "model."
    _expect_keys(
        d,
        known={"name", "wheelbase", "dt", "v_max", "phi_max", "integrator"},
        required={"name", "wheelbase", "dt", "v_max", "phi_max"},
        prefix=prefix,
    )
    name = d["name"]
    if name != "car":
        raise ConfigError("model.name", f"unknown model '{name}' (supported: car)")
    cfg = ModelConfig(
        name=name,
        wheelbase=_number(d, "wheelbase", prefix),
        dt=_number(d, "dt", prefix),
        v_max=_number(d, "v_max", prefix),
        phi_max=_number(d, "phi_max", prefix),
        integrator=d.get("integrator", "euler"),
    )
    if cfg.wheelbase <= 0:
        raise ConfigError("model.wheelbase", "must be > 0")
    if cfg.dt <= 0:
        raise ConfigError("model.dt", "must be > 0")
    if cfg.v_max <= 0:
        raise ConfigError("model.v_max", "must be > 0")
    if not 0 < cfg.phi_max <= math.pi / 2:
        raise ConfigError("model.phi_max", "must lie in (0, pi/2]")
    if cfg.integrator not in ("euler", "rk4"):
        raise ConfigError("model.integrator", f"unknown integrator '{cfg.integrator}'")
    return cfg


def _parse_planner(d: dict) -> PlannerConfig:
    prefix = "planner."
    _expect_keys(
        d,
        known={"r_u", "r_g", "r_b", "tolerance", "max_iters"},
        required={"r_u", "r_g", "r_b"},
        prefix=prefix,
    )
    cfg = PlannerConfig(
        r_u=_number(d, "r_u", prefix),
        r_g=_number(d, "r_g", prefix),
        r_b=_number(d, "r_b", prefix),
        tolerance=_number(d, "tolerance", prefix) if "tolerance" in d else 1e-6,
        max_iters=_integer(d, "max_iters", prefix) if "max_iters" in d else 500,
    )
    for field_name in ("r_u", "r_g", "r_b"):
        if getattr(cfg, field_name) < 0:
            raise ConfigError(f"planner.{field_name}", "must be >= 0")
    if cfg.tolerance <= 0:
        raise ConfigError("planner.tolerance", "must be > 0")
    if cfg.max_iters < 1:
        raise ConfigError("planner.max_iters", "must be >= 1")
    return cfg


def _parse_lqr(d: dict, n_x: int, n_u: int) -> LqrConfig:
    prefix = "lqr."
    _expect_keys(d, known={"wx", "wu"}, required={"wx", "wu"}, prefix=prefix)
    wx = _vector(d, "wx", prefix)
    wu = _vector(d, "wu", prefix)
    if len(wx) != n_x:
        raise ConfigError("lqr.wx", f"expected {n_x} diagonal entries, got {len(wx)}")
    if len(wu) != n_u:
        raise ConfigError("lqr.wu", f"expected {n_u} diagonal entries, got {len(wu)}")
    if any(w < 0 for w in wx):
        raise ConfigError("lqr.wx", "entries must be >= 0")
    if any(w <= 0 for w in wu):
        raise ConfigError("lqr.wu", "entries must be > 0")
    return LqrConfig(wx=wx, wu=wu)


def _parse_sweep(d: dict) -> SweepConfig:
    prefix = "sweep."
    _expect_keys(
        d,
        known={"eps_start", "eps_step", "eps_end", "n_runs"},
        required={"eps_start", "eps_step", "eps_end", "n_runs"},
        prefix=prefix,
    )
    cfg = SweepConfig(
        eps_start=_number(d, "eps_start", prefix),
        eps_step=_number(d, "eps_step", prefix),
        eps_end=_number(d, "eps_end", prefix),
        n_runs=_integer(d, "n_runs", prefix),
    )
    if cfg.eps_start <= 0:
        raise ConfigError("sweep.eps_start", "must be > 0")
    if cfg.eps_step <= 0:
        raise ConfigError("sweep.eps_step", "must be > 0")
    if cfg.eps_end < cfg.eps_start:
        raise ConfigError("sweep.eps_end", "must be >= eps_start")
    if cfg.n_runs < 1:
        raise ConfigError("sweep.n_runs", "must be >= 1")
    return cfg


def _parse_ldp(d: dict) -> LdpConfig:
    prefix = "ldp."
    _expect_keys(
        d,
        known={"delta", "eps_grid", "n_runs"},
        required={"delta", "eps_grid", "n_runs"},
        prefix=prefix,
    )
    cfg = LdpConfig(
        delta=_number(d, "delta", prefix),
        eps_grid=_vector(d, "eps_grid", prefix),
        n_runs=_integer(d, "n_runs", prefix),
    )
    if cfg.delta <= 0:
        raise ConfigError("ldp.delta", "must be > 0")
    if any(e <= 0 for e in cfg.eps_grid):
        raise ConfigError("ldp.eps_grid", "entries must be > 0")
    if any(b <= a for a, b in zip(cfg.eps_grid, cfg.eps_grid[1:])):
        raise ConfigError("ldp.eps_grid", "entries must be strictly increasing")
    if cfg.n_runs < 1:
        raise ConfigError("ldp.n_runs", "must be >= 1")
    return cfg


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a plain dict against the schema; raise ConfigError on issues."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "top level must be a JSON object")
    known = {"model", "x0", "x_g", "horizon", "planner", "lqr", "sweep", "ldp", "master_seed"}
    _expect_keys(data, known=known, required=known, prefix="")
    for section in ("model", "planner", "lqr", "sweep", "ldp"):
        if not isinstance(data[section], dict):
            raise ConfigError(section, "expected a JSON object")

    model = _parse_model(data["model"])
    x0 = _vector(data, "x0", "")
    x_g = _vector(data, "x_g", "")
    n_x, n_u = 3, 2  # car dimensions
    if len(x0) != n_x:
        raise ConfigError("x0", f"expected {n_x} entries, got {len(x0)}")
    if len(x_g) != n_x:
        raise ConfigError("x_g", f"expected {n_x} entries, got {len(x_g)}")
    horizon = _integer(data, "horizon", "")
    if horizon < 1:
        raise ConfigError("horizon", "must be >= 1")
    master_seed = _integer(data, "master_seed", "")
    if not 0 <= master_seed < 2**64:
        raise ConfigError("master_seed", "must fit in 64 bits")

    return ExperimentConfig(
        model=model,
        x0=x0,
        x_g=x_g,
        horizon=horizon,
        planner=_parse_planner(data["planner"]),
        lqr=_parse_lqr(data["lqr"], n_x, n_u),
        sweep=_parse_sweep(data["sweep"]),
        ldp=_parse_ldp(data["ldp"]),
        master_seed=master_seed,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<json>", f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
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
