"""Experiment configuration: nested dataclasses, JSON round-trip, content hash.

Unknown keys are rejected, and each section checks the limits that depend on the
config alone when it is built, so every command refuses a bad value before any
PDE solve.  The resolved configuration (all defaults made explicit) is what gets
hashed and emitted next to every command's outputs, so identical configs always
map to identical artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .oed import ESTIMATORS
from .optimize import check_solve
from .sketch import SketchConfig


@dataclass
class MeshConfig:
    nx: int = 10
    holes: list = field(default_factory=list)


@dataclass
class MassConfig:
    mode: str = "lumped"


@dataclass
class PdeConfig:
    kappa: float = 0.001
    T: float = 5.0
    n_steps: int = 50


@dataclass
class VelocityConfig:
    amplitude: float = 1.0


@dataclass
class PriorConfig:
    alpha: float = 2e-3
    beta: float = 0.1


@dataclass
class SensorsConfig:
    # either a regular grid of candidates (gx x gy points inset by margin)
    # or explicit coordinates
    grid: list = field(default_factory=lambda: [7, 5])
    margin: list = field(default_factory=lambda: [0.1, 0.1])
    coords: list | None = None


@dataclass
class ObsConfig:
    times: list = field(default_factory=lambda: [1.0, 2.0, 3.5])


@dataclass
class NoiseConfig:
    pct: float = 0.02
    # design-model noise scale as a multiple of the peak clean measurement;
    # defaults to pct.  Lets the OED noise model be set independently of the
    # synthetic-data noise (pct stays < 1, sigma_rel need not).
    sigma_rel: float | None = None

    def __post_init__(self):
        if not (0 <= self.pct < 1 and (self.sigma_rel is None or self.sigma_rel >= 0)):
            raise ConfigError(f"need 0 <= noise.pct < 1 and sigma_rel null or >= 0, got {self.pct}, {self.sigma_rel}")


@dataclass
class TrueStateConfig:
    # sum of Gaussian bumps: amplitude * exp(-|x - center|^2 / (2 width^2))
    bumps: list = field(
        default_factory=lambda: [
            {"center": [0.35, 0.7], "width": 0.12, "amplitude": 1.0},
            {"center": [0.7, 0.3], "width": 0.1, "amplitude": 0.6},
        ]
    )

    def __post_init__(self):
        for bump in self.bumps:
            keys = isinstance(bump, dict) and set(bump) == {"center", "width", "amplitude"}
            numbers = keys and all(_fits(bump[key], float) for key in ("width", "amplitude"))
            if not (numbers and bump["width"] > 0):
                raise ConfigError(
                    f"theta_true.bumps entries need exactly a center, a finite width > 0 and amplitude, got {bump!r}"
                )
            float_array(bump["center"], "theta_true.bumps center", (2,))


@dataclass
class SketchSection:
    k: int = 30
    p: int = 5
    q: int = 1
    seed: int | None = None  # None: derived from seeds.master

    def __post_init__(self):
        SketchConfig(self.k, self.p, self.q)


@dataclass
class OptConfig:
    method: str = "rand"  # eig | rand | frozen | dense
    penalty: str = "l1"  # l1 | cont
    gamma: float = 2.0
    cont_stages: int = 6
    tol: float = 1e-5
    max_iters: int = 200
    threshold: float = 0.03
    eig_k: int | None = None  # defaults to sketch.k
    frozen_k: int | None = None

    def __post_init__(self):
        if self.method not in ESTIMATORS:
            raise ConfigError(f"unknown opt.method {self.method!r} (expected one of {ESTIMATORS})")
        if self.penalty not in ("l1", "cont"):
            raise ConfigError(f"unknown opt.penalty {self.penalty!r} (expected 'l1' or 'cont')")
        if any(k is not None and k < 1 for k in (self.eig_k, self.frozen_k)):
            raise ConfigError(f"opt.eig_k and opt.frozen_k must be null or >= 1, got {self.eig_k}, {self.frozen_k}")
        check_solve(self.gamma, self.tol, self.max_iters, self.threshold, self.schedule)

    @property
    def schedule(self) -> tuple:
        """The continuation's eps_i = 1/2^i for i = 1..cont_stages."""
        return tuple(0.5**i for i in range(1, self.cont_stages + 1))


@dataclass
class SeedsConfig:
    master: int = 20260810


def _fits(value, hint) -> bool:
    """JSON value against a field annotation: float takes an int, list a tuple, X | None takes None; bool is no
    number, and NaN or Infinity fits nothing."""
    if typing.get_args(hint):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if isinstance(value, float) and not np.isfinite(value):
        return False
    return isinstance(value, {float: (int, float), list: (list, tuple)}.get(hint, hint))


def float_array(values, name: str, shape: tuple) -> np.ndarray:
    """A list field as a float array of ``shape`` (None: any length); text, bools, non-finite
    values or ragged rows are a ConfigError."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged rows
        arr = np.asarray(None)
    if arr.size == 0 and shape[0] is None:
        return np.zeros((0, *shape[1:]))
    if (
        arr.dtype.kind not in "iuf"
        or arr.ndim != len(shape)
        or any(s not in (None, d) for s, d in zip(shape, arr.shape))
        or not np.all(np.isfinite(arr))
    ):
        raise ConfigError(f"{name} must be finite numbers of shape {shape}, got {values!r}")
    return arr.astype(float)


@dataclass
class ExperimentConfig:
    mesh: MeshConfig = field(default_factory=MeshConfig)
    mass: MassConfig = field(default_factory=MassConfig)
    pde: PdeConfig = field(default_factory=PdeConfig)
    velocity: VelocityConfig = field(default_factory=VelocityConfig)
    prior: PriorConfig = field(default_factory=PriorConfig)
    sensors: SensorsConfig = field(default_factory=SensorsConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    theta_true: TrueStateConfig = field(default_factory=TrueStateConfig)
    sketch: SketchSection = field(default_factory=SketchSection)
    opt: OptConfig = field(default_factory=OptConfig)
    seeds: SeedsConfig = field(default_factory=SeedsConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(_SECTIONS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        sections = {}
        for name, section_cls in _SECTIONS.items():
            payload = data.get(name, {})
            if not isinstance(payload, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            allowed = {f.name for f in dataclasses.fields(section_cls)}
            bad = set(payload) - allowed
            if bad:
                raise ConfigError(f"unknown keys in section {name!r}: {sorted(bad)}")
            hints = _HINTS[name]
            for key, value in payload.items():
                if not _fits(value, hints[key]):
                    kind = getattr(hints[key], "__name__", hints[key])
                    raise ConfigError(f"{name}.{key} must be of type {kind}, got {value!r}")
            sections[name] = section_cls(**payload)
        for name, seed in (("seeds.master", sections["seeds"].master), ("sketch.seed", sections["sketch"].seed)):
            if seed is not None and seed < 0:
                raise ConfigError(f"{name} must be a non-negative integer, got {seed}")
        return cls(**sections)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def content_hash(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    def save_resolved(self, path) -> None:
        """Write the resolved configuration, every default explicit, with its content hash."""
        with open(path, "w") as f:
            json.dump({**self.to_dict(), "content_hash": self.content_hash()}, f, indent=2, sort_keys=True)
            f.write("\n")

    # -- derived quantities --------------------------------------------------

    def derived_seeds(self) -> dict:
        """Per-purpose RNG seeds derived from the master seed."""
        state = np.random.SeedSequence(self.seeds.master).generate_state(4)
        seeds = {
            "noise": int(state[0]),
            "sketch": int(state[1]),
            "designs": int(state[2]),
            "eigs": int(state[3]),
        }
        if self.sketch.seed is not None:
            seeds["sketch"] = int(self.sketch.seed)
        return seeds

    def with_master_seed(self, master: int) -> "ExperimentConfig":
        data = self.to_dict()
        data["seeds"]["master"] = int(master)
        return ExperimentConfig.from_dict(data)

    def sensor_coordinates(self) -> np.ndarray:
        s = self.sensors
        if s.coords is not None:
            return float_array(s.coords, "sensors.coords", (None, 2))
        grid = float_array(s.grid, "sensors.grid", (2,))
        if np.any(grid < 1) or np.any(grid != np.round(grid)):
            raise ConfigError(f"sensors.grid entries must be integers >= 1, got {s.grid!r}")
        if grid[0] * grid[1] > (self.mesh.nx + 1) ** 2:  # each sensor needs its own grid node
            raise ConfigError(f"sensors.grid {s.grid!r} has more points than the {(self.mesh.nx + 1) ** 2} mesh nodes")
        gx, gy = grid.astype(int)
        mx, my = float_array(s.margin, "sensors.margin", (2,))
        if not (0 <= mx < 0.5 and 0 <= my < 0.5):
            raise ConfigError("sensors.margin entries must lie in [0, 0.5)")
        xs = np.linspace(mx, 1.0 - mx, gx)
        ys = np.linspace(my, 1.0 - my, gy)
        X, Y = np.meshgrid(xs, ys)
        return np.column_stack([X.ravel(), Y.ravel()])


_SECTIONS = typing.get_type_hints(ExperimentConfig)
_HINTS = {name: typing.get_type_hints(cls) for name, cls in _SECTIONS.items()}
