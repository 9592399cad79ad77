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
checked field itself and ``read`` returns the wave.  Along z the
coherence carries exp(-i dk z) (``MemoryParams.delta_k``), which
forward readout undoes exactly; the loss when atoms drift along z
during storage is the analytic
:func:`oamem.decoherence.longitudinal_drift_factor`.  All efficiency
loss is modeled downstream (empirical decay in
:mod:`oamem.decoherence`), and the neglected free-space diffraction
phase q^2 D / k_s is checked explicitly, on the forward spectrum of
the written wave: |S|^2 is folded into a quarter plane
(``TransverseField.folded_power``), whose 99 % shell is read from one
histogram of the shells of its leading block.  The spin wave of an
ideal source is no n x n array, and its quarter plane is no plane
either: its total and the few leading blocks that the check reads are
contracted from rows folded from the 1-D spectra of its factors
(``fieldgrid.FoldedPower``); a hologram's far field computes and caches
its spectrum once, for the check and the blur, and folds it into the
plane one block of rows at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fieldgrid import FoldedPower, TransverseField

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
    """Map an optical envelope onto the spin wave (unit write efficiency).

    Warns when the neglected diffraction phase q^2 D / k_s exceeds 0.1
    over the occupied spectrum.  Returns ``f`` itself as the spin wave.
    """
    phase = diffraction_check(params, f)
    if phase >= DIFFRACTION_PHASE_LIMIT:
        warnings.warn(
            f"diffraction phase q^2 D / k_s = {phase:.3g} >= {DIFFRACTION_PHASE_LIMIT}; "
            "the stored profile will not read out faithfully",
            stacklevel=2,
        )
    return f


def read(s: TransverseField) -> TransverseField:
    """Forward readout of a (possibly decohered) spin wave: ``s`` itself, as the field."""
    return s


def diffraction_check(params: MemoryParams, s: TransverseField) -> float:
    """Max diffraction phase q^2 D / k_s over the 99%-energy spectrum.

    |S|^2 of the unnormalized 2-D DFT S is folded by the magnitudes
    (|i|, |j|) of its frequency indices into one quarter plane
    (``TransverseField.folded_power``); q99^2 is q_pitch^2 times the
    first integer shell i^2 + j^2 to hold 99 % of it (:func:`_first_shell`).
    """
    shell = _first_shell(s.folded_power(), 0.99)
    if shell is None:
        return 0.0
    return float(s.grid.q_pitch ** 2 * shell * params.diameter / params.k_s)


def _first_shell(quarter: np.ndarray | FoldedPower, fraction: float) -> int | None:
    """The least shell S = i^2 + j^2 whose disc holds ``fraction`` of ``quarter``; None if empty.

    ``quarter`` is a square plane or a :class:`~oamem.fieldgrid.FoldedPower`:
    only its side, its total and its leading blocks are read.

    The leading w x w block is doubled from w = 1, since a resolved
    spectrum fills a small disc, until it holds the target.  Its
    largest shell 2 (w - 1)^2 then holds the target too, and the disc
    of every shell up to that one lies in the leading block of width
    isqrt(2 (w - 1)^2) + 1, so one ``np.bincount`` of the shells of
    that block, summed cumulatively, gives the energy within each of
    them, and S is the first to reach the target.
    """
    target = fraction * float(quarter.sum())
    if target == 0:
        return None
    w = 1
    while w < len(quarter) and quarter[:w, :w].sum() < target:
        w = min(2 * w, len(quarter))
    width = min(math.isqrt(2 * (w - 1) ** 2) + 1, len(quarter))
    k2 = np.arange(width) ** 2
    block = quarter[:width, :width]
    return int(np.searchsorted(np.cumsum(np.bincount((k2[:, None] + k2).ravel(),
                                                     weights=block.ravel())), target))
