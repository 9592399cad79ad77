"""Decoherence channels of the stored spin wave.

Two physical mechanisms act on the transverse coherence pattern:

* ballistic free expansion of the cold ensemble, a Gaussian blur whose
  per-axis variance grows as sigma^2 = k_B T t_s^2 / m, applied as a
  spectral contraction exp(-q^2 sigma^2 / 2);
* spatially inhomogeneous Larmor precession in the residual magnetic
  field, a pure per-pixel phase exp(i dOmega(rho) t_s).

:func:`decohere` applies both to one new n x n array per storage time,
and neither rebuilds work that does not depend on t_s.  The spin wave is
a :class:`~oamem.fieldgrid.TransverseField`, and the blur reads the
ensemble's temperature and mass from the memory's
:class:`~oamem.polariton.MemoryParams` (``MemoryParams.sigma``).  The
blur kernel factors as k1(q_x) k1(q_y).  A wave synthesized from LG
modes carries its K <= |l| + 1 separable factors
(``TransverseField.factors``): the blur transforms the K real 1-D rows,
K n log n work, and one pass rebuilds the n x n wave.  A wave without
factors, such as a binary hologram's far field, whose mask is not
separable, takes the spectral path: its forward spectrum is computed
once (``TransverseField.spectrum``, which the diffraction check of
:func:`oamem.polariton.write` also reads), and each storage time scales
it by both kernel factors and inverts it in place.  The Larmor map
dOmega(x, y) is built once per (model, grid) pair, and each storage time
multiplies the wave in place by cos and sin of dOmega t_s, after
checking that the phase is finite.

End-to-end retrieval efficiency is a separate, empirical exponential
decay fitted to two measured anchor points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NodalLineNotFound, NonFiniteField
from .fieldgrid import GridSpec, Separable, TransverseField
from .polariton import MemoryParams

# reference end-to-end efficiencies used as default decay anchors
DEFAULT_EFFICIENCY_ANCHORS = ((10e-6, 0.1074), (400e-6, 0.0473))


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


def decohere(s: TransverseField, t_s: float, diffusion: MemoryParams | None = None,
             magnetic: MagneticModel | None = None) -> TransverseField:
    """``s`` after t_s of free expansion, then Larmor dephasing; a channel left None is off.

    ``diffusion`` is the memory whose temperature and mass set the blur.
    Builds one new n x n array: the blur writes it (or it starts as a copy
    of ``s.values``) and the Larmor phase is applied to it in place; the
    returned field checks that it is finite.  Returns ``s`` itself when no
    channel changes it (t_s = 0).
    """
    if t_s < 0:
        raise ValueError("storage time must be >= 0")
    blur = diffusion is not None and t_s > 0.0
    phase = magnetic is not None and t_s > 0.0
    if not (blur or phase):
        return s
    values = _blurred(s, diffusion.sigma(t_s)) if blur else np.array(s.values)
    if phase:
        _dephase(values, s.grid, magnetic, t_s)
    return s.with_values(values)


def diffuse(s: TransverseField, p: MemoryParams, t_s: float) -> TransverseField:
    """Free expansion of the stored coherence over t_s seconds.

    The spectral kernel exp(-q^2 sigma^2 / 2) is a contraction, so the
    coherence norm never grows; t_s = 0 is the identity.
    """
    return decohere(s, t_s, diffusion=p)


def _blurred(s: TransverseField, sigma: float) -> np.ndarray:
    """The values of ``s`` blurred by exp(-q^2 sigma^2 / 2), as a new array.

    The kernel factors as k1(q_x) k1(q_y).  A wave with ``factors`` is
    blurred on its K real 1-D rows (k1 is even, so they stay real) and
    rebuilt in one pass; any other wave scales its cached forward spectrum
    by both factors and inverts it in place.
    """
    n = s.grid.n
    q = 2.0 * np.pi * np.fft.fftfreq(n, d=s.grid.pitch)
    k1 = np.exp(-0.5 * q ** 2 * sigma ** 2)
    if s.factors is not None:
        rows = np.fft.rfft(s.factors.rows, axis=1)
        rows *= k1[:n // 2 + 1]
        return Separable(np.fft.irfft(rows, n, axis=1), s.factors.mix).array()
    blurred = s.spectrum * k1
    blurred *= k1[:, None]
    np.fft.ifft(blurred, axis=1, out=blurred)
    np.fft.ifft(blurred, axis=0, out=blurred)
    return blurred


@lru_cache(maxsize=1)
def _larmor_map(mdl: MagneticModel, grid: GridSpec) -> tuple[np.ndarray, float]:
    """Read-only angular shift dOmega(x, y) of ``mdl`` on ``grid`` in rad/s, and max |dOmega|.

    Rows are y, as in ``GridSpec.mesh``; the axes broadcast, so no mesh is
    built.  A ``field_at`` that ignores an axis may return fewer rows.  A
    map that overflows has a non-finite maximum, which :func:`_dephase`
    rejects.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        omega = np.asarray(mdl.angular_shift(grid.xs()[None, :], grid.ys()[:, None]),
                           dtype=np.float64)
    omega.flags.writeable = False
    return omega, float(np.max(np.abs(omega)))


# rows per block of the in-place Larmor phase: exp(i dOmega t_s) is built
# one 64 x n block at a time, so no second n x n complex array is needed
_PHASE_BLOCK_ROWS = 64


def _dephase(values: np.ndarray, grid: GridSpec, mdl: MagneticModel, t_s: float) -> None:
    """Multiply ``values`` by exp(i dOmega t_s) in place, one block of rows at a time.

    Raises NonFiniteField when dOmega t_s is not finite somewhere, before
    any cos or sin is taken.
    """
    omega, peak = _larmor_map(mdl, grid)
    if not math.isfinite(peak * t_s):
        raise NonFiniteField(f"field values must be finite: the Larmor phase dOmega t_s "
                             f"reaches {peak * t_s:g} rad at t_s = {t_s:g} s")
    omega = np.broadcast_to(omega, values.shape)
    rows = min(_PHASE_BLOCK_ROWS, grid.n)
    rot = np.empty((rows, grid.n), dtype=np.complex128)
    for start in range(0, grid.n, rows):
        np.multiply(omega[start:start + rows], t_s, out=rot.imag)
        np.cos(rot.imag, out=rot.real)
        np.sin(rot.imag, out=rot.imag)
        values[start:start + rows] *= rot


def magnetic_dephase(s: TransverseField, mdl: MagneticModel, t_s: float) -> TransverseField:
    """Pixel-wise Larmor phase exp(i dOmega t_s) accumulated over t_s; magnitudes untouched."""
    return decohere(s, t_s, magnetic=mdl)


def longitudinal_drift_factor(p: MemoryParams, t_s: float) -> float:
    """Amplitude retained against ballistic drift along z.

    One-dimensional analogue of the transverse blur applied to the
    exp(i dk z) spin-wave phase, dk = ``p.delta_k``: exp(-dk^2 sigma_z^2 / 2)
    with sigma_z^2 = k_B T t_s^2 / m.  Equals 1 for collinear beams (dk = 0).
    """
    return math.exp(-0.5 * (p.delta_k * p.sigma(t_s)) ** 2)


def _nodal_position(s: TransverseField) -> float:
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


def qutrit_nodal_shift(before: TransverseField, after: TransverseField) -> float:
    """Signed displacement of the dark line along x, after minus before."""
    return _nodal_position(after) - _nodal_position(before)
