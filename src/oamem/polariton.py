"""Dark-state polariton storage: field <-> spin-wave mapping.

The full space-time propagation is not integrated here.  Under the
adiabatic approximation the bright component vanishes and the polariton
moves at v_g = c cos^2(theta) with tan^2(theta) = g^2 N / Omega_c^2;
switching the coupling off rotates theta to pi/2 and deposits the whole
envelope, transverse profile intact, in the ground-state coherence.
The write/read pair below implements that limit: it is exactly unitary,
and the conserved-norm split across field and matter parts is what the
reduced propagation equation guarantees.  The spin wave is the stored
transverse profile on the same grid, so it is a
:class:`~oamem.fieldgrid.TransverseField` too.  At theta = pi/2 the
field maps onto the spin wave as -S and back as -(-S), a sign that
readout cancels exactly and no output can see, so ``write`` returns the
field itself and ``read`` returns the wave.  Along z the coherence
carries exp(-i dk z) (``MemoryParams.delta_k``), which forward readout
undoes exactly; the loss when atoms drift along z during storage is the
analytic :func:`oamem.decoherence.longitudinal_drift_factor`.  All efficiency
loss is modeled downstream (empirical decay in
:mod:`oamem.decoherence`), and the neglected free-space diffraction
phase q^2 D / k_s is checked explicitly (:func:`diffraction_check`),
once per campaign, at the radius q99 that holds 99 % of the written
wave's spectral power.  Every wave a config can write has a spectrum in
closed form, so :mod:`oamem.harness` takes q99 from the config
(:func:`oamem.modes.spectral_x99`), not from the sampled wave.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fieldgrid import TransverseField

BOLTZMANN = 1.380649e-23
SPEED_OF_LIGHT = 299792458.0
DIFFRACTION_PHASE_LIMIT = 0.1


@dataclass(frozen=True)
class MemoryParams:
    """Ensemble and beam constants of the storage medium.

    ``omega_c`` is the constant coupling Rabi frequency in rad/s; ``g2n``
    is the collective coupling g^2 N in rad^2/s^2.  ``alpha`` is the
    signal/coupling angle, which sets the spin-wave longitudinal wave
    vector dk = k_c (cos(alpha) - 1) <= 0.  ``temperature`` (K) and
    ``mass`` (kg) set the ballistic spread of the ensemble.
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

    def sigma(self, t_s: float) -> float:
        """Per-axis ballistic spread t_s * sqrt(k_B T / m), meters."""
        return t_s * math.sqrt(BOLTZMANN * self.temperature / self.mass)


def mixing_angle(params: MemoryParams) -> float:
    """theta = arctan(sqrt(g^2 N) / Omega_c); pi/2 when the coupling is off."""
    return math.atan2(math.sqrt(params.g2n), params.omega_c)


def group_velocity(params: MemoryParams) -> float:
    """v_g = c / (1 + g^2 N / Omega_c^2); zero exactly when Omega_c = 0."""
    if params.omega_c == 0.0:
        return 0.0
    return SPEED_OF_LIGHT / (1.0 + params.g2n / params.omega_c ** 2)


def write(f: TransverseField, params: MemoryParams) -> TransverseField:
    """Map an optical envelope onto the spin wave (unit write efficiency): ``f`` itself.

    Nothing here depends on ``params``: the diffraction check that the
    mapping needs runs once per campaign, from the config
    (:func:`diffraction_check`).
    """
    return f


def read(s: TransverseField) -> TransverseField:
    """Forward readout of a (possibly decohered) spin wave: ``s`` itself, as the field."""
    return s


def diffraction_check(params: MemoryParams, q2: float) -> float:
    """The diffraction phase q2 D / k_s at the squared spectral radius ``q2`` (rad^2 / m^2).

    Warns when it reaches DIFFRACTION_PHASE_LIMIT: the stored profile
    then does not read out faithfully.
    """
    phase = q2 * params.diameter / params.k_s
    if phase >= DIFFRACTION_PHASE_LIMIT:
        warnings.warn(
            f"diffraction phase q^2 D / k_s = {phase:.3g} >= {DIFFRACTION_PHASE_LIMIT}; "
            "the stored profile will not read out faithfully",
            stacklevel=2,
        )
    return phase
