"""Experiment configuration: parsing, validation, serialization, hashing.

One YAML file drives every campaign.  Sections mirror the physics
modules; unknown keys are rejected everywhere so a typo cannot silently
fall back to a default physics parameter.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .bounds import PhotonStatistics
from .decoherence import DEFAULT_EFFICIENCY_ANCHORS, EfficiencyModel, MagneticModel
from .errors import ConfigError, OamemError
from .fieldgrid import GridSpec
from .holography import _focal_grid
from .modes import QuditState, _support_check, qubit_state
from .polariton import MemoryParams, constant_schedule

EXPERIMENT_KINDS = ("interference_scan", "meridian_sweep", "storage_decay",
                    "tomography", "bounds_table", "field_render")


@dataclass(frozen=True)
class QuditConfig:
    """State under test: dimension, charge, waist, and coefficients.

    Qubits may be given as Bloch angles (gamma, beta) instead of explicit
    coefficients; coefficients are [re, im] pairs in basis order.
    """

    dim: int = 2
    l: int = 2
    waist: float = 250e-6
    coeffs: tuple | None = None
    gamma: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigError("qudit dim must be 2 or 3")
        if self.coeffs is None and self.gamma is None:
            raise ConfigError("qudit needs either coeffs or Bloch angles")
        if self.coeffs is not None and len(self.coeffs) != self.dim:
            raise ConfigError("qudit coeffs length must equal dim")
        if not self.waist > 0:
            raise ConfigError("qudit waist must be positive")

    def to_state(self) -> QuditState:
        if self.coeffs is not None:
            c = np.array([complex(re, im) for re, im in self.coeffs])
            return QuditState(c, l=self.l)
        return qubit_state(self.gamma, self.beta or 0.0, l=self.l)


@dataclass(frozen=True)
class MemoryConfig:
    lambda_s: float = 795e-9
    lambda_c: float = 795e-9
    alpha: float = 0.0
    g2n: float = 1e16
    omega_c: float = 5e7
    diameter: float = 2e-3
    temperature: float = 100e-6
    mass: float = 1.4099932e-25

    def to_params(self) -> MemoryParams:
        return MemoryParams(lambda_s=self.lambda_s, lambda_c=self.lambda_c,
                            alpha=self.alpha, g2n=self.g2n,
                            omega_c=constant_schedule(self.omega_c),
                            diameter=self.diameter, temperature=self.temperature,
                            mass=self.mass)


@dataclass(frozen=True)
class DecoherenceConfig:
    diffusion: bool = True
    magnetic: bool = False
    longitudinal_drift: bool = False


@dataclass(frozen=True)
class MagneticConfig:
    trap_gradient: float = 0.1
    ambient_fraction: float = 0.05
    guiding_b: float = 9.7e-5
    sensitivity: float = 0.0
    second_order: float = 0.0
    center: tuple = (0.0, 0.0)

    def to_model(self) -> MagneticModel:
        return MagneticModel(trap_gradient=self.trap_gradient,
                             ambient_fraction=self.ambient_fraction,
                             guiding_b=self.guiding_b,
                             sensitivity=self.sensitivity,
                             second_order_coeff=self.second_order,
                             center=self.center)


@dataclass(frozen=True)
class EfficiencyConfig:
    """Either explicit (eta0, tau) or two (t_s, eta) anchor points."""

    eta0: float | None = None
    tau: float | None = None
    anchors: tuple = DEFAULT_EFFICIENCY_ANCHORS

    def to_model(self) -> EfficiencyModel:
        if self.eta0 is not None and self.tau is not None:
            return EfficiencyModel(eta0=self.eta0, tau=self.tau)
        early, late = self.anchors
        return EfficiencyModel.from_anchors(tuple(early), tuple(late))


@dataclass(frozen=True)
class PhotonConfig:
    n_bar: float = 1.6
    uncertainty: float = 0.4


@dataclass(frozen=True)
class CountingSection:
    """Detector side of a campaign; the mean photon number is ``photon.n_bar``."""

    pulses: int = 100000
    bg_rate: float = 0.0
    acquisition: float = 300.0
    poisson: bool = True

    def __post_init__(self):
        if not 1 <= self.pulses < math.inf:
            raise ConfigError("counting pulses must be a finite number >= 1")
        if not self.bg_rate >= 0:
            raise ConfigError("counting bg_rate must be >= 0")


@dataclass(frozen=True)
class SourceConfig:
    """How the input field is generated: ideal synthesis or a binary mask."""

    kind: str = "ideal"
    input_waist: float = 1e-3
    focal: float = 0.5

    def __post_init__(self):
        if self.kind not in ("ideal", "hologram"):
            raise ConfigError(f"unknown source kind {self.kind!r}")
        if not (self.input_waist > 0 and self.focal > 0):
            raise ConfigError("source input_waist and focal must be positive")


@dataclass(frozen=True)
class ScanConfig:
    beta_points: int = 12

    def __post_init__(self):
        if self.beta_points < 4:
            raise ConfigError("visibility fit needs at least 4 scan points")


@dataclass(frozen=True)
class MeridianConfig:
    gamma_points: int = 13

    def __post_init__(self):
        if self.gamma_points < 2:
            raise ConfigError("meridian sweep needs at least 2 points")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    experiment: str | None = None
    output_dir: str | None = None
    grid: GridSpec = GridSpec(256, 3.2e-3)
    qudit: QuditConfig = QuditConfig(dim=2, l=2, gamma=np.pi / 2, beta=0.0)
    memory: MemoryConfig = MemoryConfig()
    decoherence: DecoherenceConfig = DecoherenceConfig()
    magnetic: MagneticConfig = MagneticConfig()
    efficiency: EfficiencyConfig = EfficiencyConfig()
    photon: PhotonConfig = PhotonConfig()
    counting: CountingSection = CountingSection()
    source: SourceConfig = SourceConfig()
    scan: ScanConfig = ScanConfig()
    meridian: MeridianConfig = MeridianConfig()
    storage_times: tuple = (0.0, 1e-4, 2e-4, 3e-4, 4e-4, 5e-4)

    def __post_init__(self):
        if self.experiment is not None and self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.experiment!r}")
        if any(t < 0 for t in self.storage_times):
            raise ConfigError("storage times must be >= 0")
        if not (math.isfinite(self.photon.n_bar) and math.isfinite(self.photon.uncertainty)):
            raise ConfigError("photon n_bar and uncertainty must be finite")
        if self.source.kind == "hologram" and self.qudit.dim == 3 and self.qudit.l != 1:
            raise ConfigError("the qutrit mask requires qudit l = 1")
        # build every physics object now, so a value it rejects is a config error
        try:
            self.qudit.to_state()
            self.memory.to_params()
            self.magnetic.to_model()
            self.efficiency.to_model()
            PhotonStatistics(self.photon.n_bar, self.photon.uncertainty)
            # the qudit modes are sampled where the field is: for a hologram
            # source, on the focal-plane grid behind the mask's lens
            mode_grid = self.grid
            if self.source.kind == "hologram":
                _support_check(0, self.source.input_waist, self.grid)
                mode_grid = _focal_grid(self.grid, self.source.focal, self.memory.lambda_s)
            _support_check(self.qudit.l, self.qudit.waist, mode_grid)
        except (ValueError, OamemError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


_SECTION_TYPES = {
    "grid": GridSpec,
    "qudit": QuditConfig,
    "memory": MemoryConfig,
    "decoherence": DecoherenceConfig,
    "magnetic": MagneticConfig,
    "efficiency": EfficiencyConfig,
    "photon": PhotonConfig,
    "counting": CountingSection,
    "source": SourceConfig,
    "scan": ScanConfig,
    "meridian": MeridianConfig,
}


def _listify(value):
    """Tuples to lists, recursively (YAML-friendly)."""
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    if isinstance(value, list):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    return value


def _tuplify(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def _parse_section(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where!r}: {sorted(unknown)}")
    kwargs = {k: _tuplify(v) for k, v in data.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where!r} section: {exc}") from exc


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    allowed = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if "seed" not in data:
        raise ConfigError("seed is mandatory")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _parse_section(_SECTION_TYPES[key], value, key)
        else:
            kwargs[key] = _tuplify(value)
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def serialize_config(cfg: ExperimentConfig) -> dict:
    return _listify(asdict(cfg))


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return parse_config(data)


def dump_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(serialize_config(cfg), sort_keys=True))


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(serialize_config(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
