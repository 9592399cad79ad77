"""Experiment configuration: parsing, validation, serialization, hashing.

One YAML file drives every campaign.  The ``grid``, ``memory``,
``magnetic`` and ``photon`` sections are the physics types themselves
(:class:`GridSpec`, :class:`MemoryParams`, :class:`MagneticModel`,
:class:`PhotonStatistics`).  Unknown keys are rejected everywhere so a
typo cannot silently fall back to a default physics parameter, every
value must have its field's declared type, and every number is finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

# CPython's built-in SHA-256, the C code that hashlib falls back to without
# OpenSSL: importing hashlib maps libcrypto (+3.7 MB RSS, 3 ms) to digest a
# few files, which no campaign need load; render's large outputs hash about
# 5x slower (+0.1 s at n = 512).
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        from hashlib import sha256

from .bounds import PhotonStatistics
from .decoherence import DEFAULT_EFFICIENCY_ANCHORS, EfficiencyModel, MagneticModel
from .errors import ConfigError
from .fieldgrid import GridSpec
from .holography import _focal_grid
from .modes import QuditState, _basis, _support_check, basis_charges, qubit_state
from .polariton import MemoryParams
from .rng import POISSON_MEAN_MAX

EXPERIMENT_KINDS = ("interference_scan", "meridian_sweep", "storage_decay",
                    "tomography", "bounds_table", "field_render")


@dataclass(frozen=True)
class QuditConfig:
    """State under test: dimension, charge magnitude l >= 1, waist, and coefficients.

    Qubits may be given as Bloch angles (gamma, beta) instead of explicit
    coefficients, not as both; coefficients are [re, im] pairs in basis order.
    """

    dim: int = 2
    l: int = 2
    waist: float = 250e-6
    coeffs: tuple[tuple[float, float], ...] | None = None
    gamma: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.coeffs is None and (self.gamma is None or self.dim != 2):
            raise ConfigError("qudit needs coeffs, or Bloch angles for a qubit")
        if self.coeffs is not None and len(self.coeffs) != self.dim:
            raise ConfigError("qudit coeffs length must equal dim")
        if self.coeffs is not None and (self.gamma, self.beta) != (None, None):
            raise ConfigError("qudit takes coeffs or Bloch angles, not both")
        if not self.waist > 0:
            raise ConfigError("qudit waist must be positive")
        # l is the magnitude of the charge: a negative one would swap |L> and |R>
        if self.l < 1:
            raise ConfigError(f"qudit.l must be a charge >= 1, got {self.l}")

    def to_state(self) -> QuditState:
        if self.coeffs is not None:
            c = np.array([complex(re, im) for re, im in self.coeffs])
            return QuditState(c, l=self.l)
        return qubit_state(self.gamma, self.beta or 0.0, l=self.l)


@dataclass(frozen=True)
class DecoherenceConfig:
    diffusion: bool = True
    magnetic: bool = False
    longitudinal_drift: bool = False


@dataclass(frozen=True)
class EfficiencyConfig:
    """Either explicit (eta0, tau) or two (t_s, eta) anchor points.

    With (eta0, tau), ``anchors`` must keep its default, which serializing
    the section writes out.
    """

    eta0: float | None = None
    tau: float | None = None
    anchors: tuple[tuple[float, float], ...] = DEFAULT_EFFICIENCY_ANCHORS

    def __post_init__(self):
        if (self.eta0 is None) != (self.tau is None):
            raise ConfigError("efficiency needs both eta0 and tau, or neither")
        if self.eta0 is not None and self.anchors != DEFAULT_EFFICIENCY_ANCHORS:
            raise ConfigError("efficiency takes (eta0, tau) or anchors, not both")

    def to_model(self) -> EfficiencyModel:
        if self.eta0 is not None:
            return EfficiencyModel(eta0=self.eta0, tau=self.tau)
        early, late = self.anchors
        return EfficiencyModel.from_anchors(tuple(early), tuple(late))


@dataclass(frozen=True)
class CountingSection:
    """Detector side of a campaign; the mean photon number is ``photon.n_bar``."""

    pulses: int = 100000
    bg_rate: float = 0.0
    acquisition: float = 300.0
    poisson: bool = True

    def __post_init__(self):
        if self.pulses < 1:
            raise ConfigError("counting pulses must be >= 1")
        if not self.bg_rate >= 0:
            raise ConfigError("counting bg_rate must be >= 0")
        if not self.acquisition > 0:
            raise ConfigError("counting acquisition must be positive")
        if self.bg_rate > 0 and not self.poisson:
            raise ConfigError("counting bg_rate needs poisson counting")


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
    memory: MemoryParams = MemoryParams()
    decoherence: DecoherenceConfig = DecoherenceConfig()
    magnetic: MagneticModel = MagneticModel()
    efficiency: EfficiencyConfig = EfficiencyConfig()
    photon: PhotonStatistics = PhotonStatistics()
    counting: CountingSection = CountingSection()
    source: SourceConfig = SourceConfig()
    scan: ScanConfig = ScanConfig()
    meridian: MeridianConfig = MeridianConfig()
    storage_times: tuple[float, ...] = (0.0, 1e-4, 2e-4, 3e-4, 4e-4, 5e-4)

    def __post_init__(self):
        # build every physics object now, so a value it rejects is a config
        # error; an anchor pair can overflow the extrapolation to t = 0
        try:
            if self.seed < 0:
                raise ConfigError("seed must be >= 0")
            if self.experiment is not None and self.experiment not in EXPERIMENT_KINDS:
                raise ConfigError(f"unknown experiment kind {self.experiment!r}")
            if any(t < 0 for t in self.storage_times):
                raise ConfigError("storage times must be >= 0")
            if self.source.kind == "hologram" and self.qudit.dim == 3 and self.qudit.l != 1:
                raise ConfigError("the qutrit mask requires qudit l = 1")
            self.qudit.to_state()
            # a Poisson draw's mean is largest at t = 0, where eta is eta0
            counting = self.counting
            mean = counting.pulses * (self.photon.n_bar * self.efficiency.to_model().eta0
                                      + counting.bg_rate)
            if counting.poisson and not mean <= POISSON_MEAN_MAX:
                raise ConfigError(f"the Poisson mean counting.pulses x (photon.n_bar x eta0 + "
                                  f"counting.bg_rate) = {mean:g} exceeds numpy's limit "
                                  f"{POISSON_MEAN_MAX:g}")
            # the qudit modes are sampled where the field is: for a hologram
            # source, on the focal-plane grid behind the mask's lens, where
            # the basis must fit and be resolved (modes._basis)
            mode_grid = self.grid
            if self.source.kind == "hologram":
                _support_check(0, self.source.input_waist, self.grid)
                mode_grid = _focal_grid(self.grid, self.source.focal, self.memory.lambda_s)
            _basis(basis_charges(self.qudit.dim, self.qudit.l), self.qudit.waist, mode_grid)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


# the sections: every field of the config whose default is a dataclass
_SECTION_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)
                  if is_dataclass(f.default)}


def _listify(value):
    """Tuples to lists, recursively (YAML-friendly)."""
    if isinstance(value, (tuple, list)):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    return value


def _tuplify(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, tuple) and all(map(_is_number, value))


def _is_pair(value) -> bool:
    return _is_numbers(value) and len(value) == 2


def _is_pairs(value) -> bool:
    return isinstance(value, tuple) and all(map(_is_pair, value))


# the values each declared field type accepts; a bool is never a number
_ACCEPTS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "tuple[float, float]": _is_pair,
    "tuple[float, ...]": _is_numbers,
    "tuple[tuple[float, float], ...]": _is_pairs,
    "tuple[tuple[float, float], ...] | None": lambda v: v is None or _is_pairs(v),
}


def _check_finite(value, where: str) -> None:
    """Reject a nan, an infinity or an int beyond float range anywhere in ``value``."""
    if isinstance(value, tuple):
        for v in value:
            _check_finite(v, where)
    elif _is_number(value):
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"{where} must be finite, got {value!r}")


def _check_fields(cls, data: dict, where: str) -> None:
    """Each value has its field's declared type, and every number is finite."""
    for f in fields(cls):
        if f.name in data:
            value, name = data[f.name], f"{where}.{f.name}"
            if not _ACCEPTS[f.type](value):
                raise ConfigError(f"{name} must be {f.type}, got {value!r}")
            _check_finite(value, name)


def _parse(cls, data, where: str):
    """A ``cls`` from the mapping ``data`` found at ``where``: the whole config,
    whose sections are parsed in turn, or one of its sections."""
    top = cls is ExperimentConfig
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping" if top
                          else f"section {where!r} must be a mapping")
    unknown = sorted(set(data) - {f.name for f in fields(cls)}, key=str)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {unknown}" if top
                          else f"unknown keys in {where!r}: {unknown}")
    if top and "seed" not in data:
        raise ConfigError("seed is mandatory")
    sections = _SECTION_TYPES if top else {}
    kwargs = {k: _tuplify(v) for k, v in data.items() if k not in sections}
    _check_fields(cls, kwargs, where)
    for key, value in data.items():
        if key in sections:
            kwargs[key] = _parse(sections[key], value, key)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where!r} section: {exc}") from exc


def parse_config(data: dict) -> ExperimentConfig:
    return _parse(ExperimentConfig, data, "config")


def serialize_config(cfg: ExperimentConfig) -> dict:
    return _listify(asdict(cfg))


def load_config(path) -> ExperimentConfig:
    """The config in the YAML file ``path``, with the checks of :func:`parse_config`.

    A config file must also leave at their defaults the values its
    campaign would ignore: ``counting.pulses`` without Poisson counting,
    and ``source.input_waist`` and ``source.focal`` with an ideal source.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    cfg = parse_config(data)
    # serializing writes every default out, so a default value must still load
    counting, source = cfg.counting, cfg.source
    if not counting.poisson and counting.pulses != CountingSection.pulses:
        raise ConfigError("counting.pulses is ignored without poisson counting; remove it")
    if source.kind == "ideal" and (source.input_waist, source.focal) != (
            SourceConfig.input_waist, SourceConfig.focal):
        raise ConfigError("source.input_waist and source.focal are ignored by an ideal "
                          "source; remove them")
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    """Hex SHA-256 of the config's canonical JSON.

    The digest is :data:`sha256`, CPython's built-in implementation, so
    hashing a config never loads OpenSSL; its bytes equal hashlib's.
    """
    canonical = json.dumps(serialize_config(cfg), sort_keys=True)
    return sha256(canonical.encode("utf-8")).hexdigest()
