"""Dark-state polariton storage: field <-> spin-wave mapping.

The full space-time propagation is not integrated here.  Under the
adiabatic approximation the bright component vanishes and the polariton
moves at v_g = c cos^2(theta) with tan^2(theta) = g^2 N / Omega_c^2;
switching the coupling off rotates theta to pi/2 and deposits the whole
envelope, transverse profile intact, in the ground-state coherence.
The write/read pair below implements that limit: it is exactly unitary,
and the conserved-norm split across field and matter parts is what the
reduced propagation equation guarantees.  All efficiency loss is modeled
downstream (empirical decay in :mod:`oamem.decoherence`), and the
neglected free-space diffraction phase q^2 D / k_s is checked explicitly,
on the one forward spectrum per written wave (``SpinWave.spectrum``) that
every storage time of :func:`oamem.decoherence.diffuse` reuses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fieldgrid import GridSpec, TransverseField

SPEED_OF_LIGHT = 299792458.0
DIFFRACTION_PHASE_LIMIT = 0.1


@dataclass(frozen=True)
class MemoryParams:
    """Ensemble and beam constants of the storage medium.

    ``omega_c`` is the constant coupling Rabi frequency in rad/s; ``g2n``
    is the collective coupling g^2 N in rad^2/s^2.  ``alpha`` is the
    signal/coupling angle, which sets the spin-wave longitudinal wave
    vector dk = k_c (cos(alpha) - 1) <= 0.
    """

    lambda_s: float = 795e-9
    lambda_c: float = 795e-9
    alpha: float = 0.0
    g2n: float = 1e16
    omega_c: float = 5e7
    diameter: float = 2e-3
    temperature: float = 100e-6
    mass: float = 1.4099932e-25

    def __post_init__(self):
        for name in ("lambda_s", "lambda_c", "g2n", "diameter", "temperature", "mass"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.omega_c < 0:
            raise ValueError("Rabi frequency must be >= 0")

    @property
    def k_s(self) -> float:
        return 2.0 * np.pi / self.lambda_s

    @property
    def k_c(self) -> float:
        return 2.0 * np.pi / self.lambda_c

    @property
    def delta_k(self) -> float:
        """Longitudinal spin-wave vector k_c (cos(alpha) - 1), in rad/m."""
        return self.k_c * (math.cos(self.alpha) - 1.0)


@dataclass(frozen=True)
class SpinWave:
    """Collective ground-state coherence holding a stored envelope.

    ``values`` is the transverse profile.  Along z the coherence carries
    exp(-i dk z), which forward readout undoes exactly; the loss when
    atoms drift along z during storage is the analytic
    :func:`oamem.decoherence.longitudinal_drift_factor`.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    delta_k: float = 0.0
    wavelength: float = 795e-9

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError("spin-wave shape does not match grid")

    def __setstate__(self, state):
        # unpickling skips __post_init__, so freeze its arrays here
        for name in {"values", "spectrum"} & state.keys():
            state[name].flags.writeable = False
        self.__dict__.update(state)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.pixel_area))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only unnormalized 2-D DFT of ``values``, computed once per wave.

        Two 1-D passes (x, then y, the order of ``np.fft.fft2``), the
        second in place.
        """
        spectrum = np.fft.fft(self.values, axis=1)
        np.fft.fft(spectrum, axis=0, out=spectrum)
        spectrum.flags.writeable = False
        return spectrum

    def with_values(self, values: np.ndarray) -> "SpinWave":
        return SpinWave(self.grid, values, self.delta_k, self.wavelength)


def mixing_angle(params: MemoryParams) -> float:
    """theta = arctan(sqrt(g^2 N) / Omega_c); pi/2 when the coupling is off."""
    return math.atan2(math.sqrt(params.g2n), params.omega_c)


def group_velocity(params: MemoryParams) -> float:
    """v_g = c / (1 + g^2 N / Omega_c^2); zero exactly when Omega_c = 0."""
    if params.omega_c == 0.0:
        return 0.0
    return SPEED_OF_LIGHT / (1.0 + params.g2n / params.omega_c ** 2)


def write(f: TransverseField, params: MemoryParams) -> SpinWave:
    """Map an optical envelope onto the spin wave (unit write efficiency).

    Warns when the neglected diffraction phase q^2 D / k_s exceeds 0.1
    over the occupied spectrum.
    """
    wave = SpinWave(f.grid, -f.values, params.delta_k, f.wavelength)
    phase = diffraction_check(params, wave)
    if phase >= DIFFRACTION_PHASE_LIMIT:
        warnings.warn(
            f"diffraction phase q^2 D / k_s = {phase:.3g} >= {DIFFRACTION_PHASE_LIMIT}; "
            "the stored profile will not read out faithfully",
            stacklevel=2,
        )
    return wave


def read(s: SpinWave, params: MemoryParams) -> TransverseField:
    """Forward readout of a (possibly decohered) spin wave."""
    return TransverseField(s.grid, -s.values, s.wavelength)


def diffraction_check(params: MemoryParams, s: SpinWave) -> float:
    """Max diffraction phase q^2 D / k_s over the 99%-energy spectrum.

    ``s.spectrum`` is binned by the integer shell i^2 + j^2 of its frequency
    indices; q99^2 is q_pitch^2 times the first shell to reach 99 %.
    """
    index = np.fft.fftfreq(s.grid.n, d=1.0 / s.grid.n).astype(np.int64)
    shells = (index[:, None] ** 2 + index ** 2).ravel()
    energy = np.bincount(shells, weights=(np.abs(s.spectrum) ** 2).ravel())
    cum = np.cumsum(energy)
    if cum[-1] == 0:
        return 0.0
    shell = int(np.searchsorted(cum, 0.99 * cum[-1]))
    return float(s.grid.q_pitch ** 2 * shell * params.diameter / params.k_s)
