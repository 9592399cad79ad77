"""Decoherence channels of the stored spin wave.

Two physical mechanisms act on the transverse coherence pattern:

* ballistic free expansion of the cold ensemble, a Gaussian blur whose
  per-axis variance grows as sigma^2 = k_B T t_s^2 / m, applied as a
  spectral contraction exp(-q^2 sigma^2 / 2);
* spatially inhomogeneous Larmor precession in the residual magnetic
  field, a pure per-pixel phase exp(i dOmega(rho) t_s).

Neither channel rebuilds work that does not depend on t_s.  The forward
spectrum of a written wave is computed once (``SpinWave.spectrum``), for
the diffraction check of :func:`oamem.polariton.write`, and each storage
time reuses it: it applies the separable kernel as two 1-D factors and
inverts it in place; the Larmor map dOmega(x, y) is built once per
(model, grid) pair and each storage time only takes cos and sin of
dOmega t_s.

End-to-end retrieval efficiency is a separate, empirical exponential
decay fitted to two measured anchor points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NodalLineNotFound
from .fieldgrid import GridSpec
from .polariton import SpinWave

BOLTZMANN = 1.380649e-23

# reference end-to-end efficiencies used as default decay anchors
DEFAULT_EFFICIENCY_ANCHORS = ((10e-6, 0.1074), (400e-6, 0.0473))


@dataclass(frozen=True)
class DiffusionParams:
    """Thermal expansion inputs: temperature (K) and atomic mass (kg)."""

    temperature: float = 100e-6
    mass: float = 1.4099932e-25

    def __post_init__(self):
        if not (self.temperature > 0 and self.mass > 0):
            raise ValueError("diffusion parameters must be positive")

    def sigma(self, t_s: float) -> float:
        """Per-axis ballistic spread t_s * sqrt(k_B T / m), meters."""
        return t_s * math.sqrt(BOLTZMANN * self.temperature / self.mass)


@dataclass(frozen=True)
class MagneticModel:
    """Residual field map and Zeeman response of the storage coherence.

    The default map is a quadrupole gradient scaled to ``ambient_fraction``
    of the trapping gradient, in quadrature with a uniform guiding bias:
    |B|(x, y) = sqrt(guiding_b^2 + (f G (x-x0))^2 + (f G (y-y0))^2), with
    the quadrupole zero at ``center`` (the beam axis rarely sits exactly
    on it; an on-axis zero gives a reflection-symmetric phase map that a
    same-|l| superposition is immune to).  ``sensitivity`` is the
    first-order coherence shift in rad/(s T) (zero for clock states);
    ``second_order`` the quadratic clock-state shift in rad/(s T^2).
    """

    trap_gradient: float = 0.1
    ambient_fraction: float = 0.05
    guiding_b: float = 9.7e-5
    sensitivity: float = 0.0
    second_order: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.guiding_b < 0:
            raise ValueError("guiding field must be >= 0")
        # hashable, so that the Larmor map can be cached per model
        object.__setattr__(self, "center", tuple(self.center))

    def field_at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        g = self.ambient_fraction * self.trap_gradient
        dx, dy = x - self.center[0], y - self.center[1]
        return np.sqrt(self.guiding_b ** 2 + (g * dx) ** 2 + (g * dy) ** 2)

    def angular_shift(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        b = self.field_at(x, y)
        return self.sensitivity * b + self.second_order * b ** 2


@dataclass(frozen=True)
class EfficiencyModel:
    """Exponential end-to-end retrieval efficiency eta0 exp(-t_s / tau)."""

    eta0: float
    tau: float

    def __post_init__(self):
        if not 0 < self.eta0 <= 1:
            raise ValueError("eta0 must lie in (0, 1]")
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    @classmethod
    def from_anchors(cls, early: tuple[float, float] = DEFAULT_EFFICIENCY_ANCHORS[0],
                     late: tuple[float, float] = DEFAULT_EFFICIENCY_ANCHORS[1]) -> "EfficiencyModel":
        """Two-point exponential solve through (t1, eta1) and (t2, eta2)."""
        t1, e1 = early
        t2, e2 = late
        if not (t2 > t1 and e1 > e2 > 0):
            raise ValueError("anchors must satisfy t2 > t1 and eta1 > eta2 > 0")
        tau = (t2 - t1) / math.log(e1 / e2)
        eta0 = e1 * math.exp(t1 / tau)
        return cls(eta0=eta0, tau=tau)

    def __call__(self, t_s: float) -> float:
        if t_s < 0:
            raise ValueError("storage time must be >= 0")
        return self.eta0 * math.exp(-t_s / self.tau)


def diffuse(s: SpinWave, p: DiffusionParams, t_s: float) -> SpinWave:
    """Free expansion of the stored coherence over t_s seconds.

    The spectral kernel exp(-q^2 sigma^2 / 2) is a contraction, so the
    coherence norm never grows; t_s = 0 is the identity.  It factors as
    k1(q_x) k1(q_y), so each call takes n exponentials, scales the cached
    forward spectrum of ``s`` and inverts it in place.
    """
    if t_s < 0:
        raise ValueError("storage time must be >= 0")
    if t_s == 0.0:
        return s
    sigma = p.sigma(t_s)
    q = 2.0 * np.pi * np.fft.fftfreq(s.grid.n, d=s.grid.pitch)
    k1 = np.exp(-0.5 * q ** 2 * sigma ** 2)
    blurred = s.spectrum * k1
    blurred *= k1[:, None]
    np.fft.ifft(blurred, axis=1, out=blurred)
    np.fft.ifft(blurred, axis=0, out=blurred)
    return s.with_values(blurred)


@lru_cache(maxsize=1)
def _larmor_map(mdl: MagneticModel, grid: GridSpec) -> np.ndarray:
    """Read-only angular shift dOmega(x, y) of ``mdl`` on ``grid``, rad/s.

    Rows are y, as in ``GridSpec.mesh``; the axes broadcast, so no mesh is
    built.  A ``field_at`` that ignores an axis may return fewer rows.
    """
    omega = np.asarray(mdl.angular_shift(grid.xs()[None, :], grid.ys()[:, None]),
                       dtype=np.float64)
    omega.flags.writeable = False
    return omega


def magnetic_dephase(s: SpinWave, mdl: MagneticModel, t_s: float) -> SpinWave:
    """Pixel-wise Larmor phase accumulated over t_s; magnitudes untouched.

    exp(i dOmega t_s) is built in one complex array: the phase goes into
    its imaginary part, then cos and sin overwrite both parts.
    """
    if t_s < 0:
        raise ValueError("storage time must be >= 0")
    if t_s == 0.0:
        return s
    rot = np.empty_like(s.values)
    np.multiply(_larmor_map(mdl, s.grid), t_s, out=rot.imag)
    np.cos(rot.imag, out=rot.real)
    np.sin(rot.imag, out=rot.imag)
    np.multiply(s.values, rot, out=rot)
    return s.with_values(rot)


def longitudinal_drift_factor(delta_k: float, p: DiffusionParams, t_s: float) -> float:
    """Amplitude retained against ballistic drift along z.

    One-dimensional analogue of the transverse blur applied to the
    exp(i dk z) spin-wave phase: exp(-dk^2 sigma_z^2 / 2) with
    sigma_z^2 = k_B T t_s^2 / m.  Equals 1 for collinear beams (dk = 0).
    """
    sigma_z = p.sigma(t_s)
    return math.exp(-0.5 * (delta_k * sigma_z) ** 2)


def _nodal_position(s: SpinWave) -> float:
    """x of the deepest interior intensity minimum along the center row.

    Refined with a parabolic fit through the three samples around the
    minimum; near a true zero the intensity is quadratic, so the vertex
    recovers the node to far better than a pixel.
    """
    n = s.grid.n
    row = np.abs(s.values[n // 2, :]) ** 2
    xs = s.grid.xs()
    peak = row.max()
    if peak == 0:
        raise NodalLineNotFound("empty pattern")
    mid, left, right = row[1:-1], row[:-2], row[2:]
    candidates = np.where((mid <= left) & (mid <= right))[0] + 1
    candidates = candidates[row[candidates] < 0.1 * peak]
    # a dark line separates two bright regions; numerical ripple in the
    # far tails must not qualify
    flanked = [i for i in candidates
               if row[:i].max(initial=0.0) > 0.1 * peak
               and row[i + 1:].max(initial=0.0) > 0.1 * peak]
    if not flanked:
        raise NodalLineNotFound("no local minimum below 10% of the peak")
    i = int(min(flanked, key=lambda j: row[j]))
    y0, y1, y2 = row[i - 1], row[i], row[i + 1]
    denom = y0 - 2.0 * y1 + y2
    offset = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    return float(xs[i] + offset * s.grid.pitch)


def qutrit_nodal_shift(before: SpinWave, after: SpinWave) -> float:
    """Signed displacement of the dark line along x, after minus before."""
    return _nodal_position(after) - _nodal_position(before)
