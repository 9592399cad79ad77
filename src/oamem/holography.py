"""Binary phase holograms, Fraunhofer diffraction, and projective coupling.

State generation is modeled as a hard 0/pi phase mask imprinted on a
Gaussian beam followed by a single lens Fourier transform; projection is
the conjugate-mode overlap an ideal single-mode fiber performs after the
analysis mask.  Carrier gratings, diffraction orders and SLM calibration
are deliberately out of scope: the mask acts as a pure transmission
phase screen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidCharge
from .fieldgrid import (GridSpec, TransverseField, inner_product, transform_to_spectrum,
                        write_pgm)
from .modes import QuditState, synthesize

BINARY_TOL = 1e-9


@dataclass(frozen=True)
class PhaseHologram:
    """Binary per-pixel phase in radians: every pixel is 0 or pi within 1e-9."""

    grid: GridSpec
    phase: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.mod(np.asarray(self.phase, dtype=np.float64), 2.0 * np.pi)
        p.flags.writeable = False
        object.__setattr__(self, "phase", p)
        if p.shape != (self.grid.n, self.grid.n):
            raise ValueError("phase shape does not match grid")
        if not np.all((p < BINARY_TOL) | (np.abs(p - np.pi) < BINARY_TOL)):
            raise ValueError("hologram phase must be 0 or pi at every pixel")

    def imprint(self, f: TransverseField) -> TransverseField:
        """Apply the mask as a transmission phase screen."""
        if f.grid != self.grid:
            raise GridMismatch("hologram and field grids differ")
        return f.with_values(f.values * np.exp(1j * self.phase))


def qubit_hologram(l: int, grid: GridSpec) -> PhaseHologram:
    """Binary mask Arg[cos(l phi)]: alternating 0/pi angular sectors.

    Fraunhofer diffraction of this mask on a Gaussian feeds the charge
    +-l superposition (the equal-weight qubit), with the remaining power
    in higher azimuthal harmonics of the square-wave sign pattern.
    """
    if l == 0:
        raise InvalidCharge("qubit hologram needs l != 0")
    _, phi = grid.polar()
    phase = np.where(np.cos(l * phi) >= 0.0, 0.0, np.pi)
    return PhaseHologram(grid, phase)


def qutrit_hologram(l: int, w0: float, grid: GridSpec) -> PhaseHologram:
    """Binary mask Arg[1 + 2 sqrt(2) r cos(phi) / w0], valid for l = 1.

    The argument is exactly the (unnormalized) field of the equal qutrit
    |L> + |G> + |R> at waist w0, so the mask is the sign of the target.
    The 0/pi boundary is the vertical line x = -w0 / (2 sqrt(2)).
    """
    if l != 1:
        raise InvalidCharge("the qutrit mask construction requires l = 1")
    if not w0 > 0:
        raise ValueError("waist must be positive")
    x, _ = grid.mesh()
    xr = x - grid.center[0]
    phase = np.where(1.0 + 2.0 * np.sqrt(2.0) * xr / w0 > 0.0, 0.0, np.pi)
    return PhaseHologram(grid, phase)


def fraunhofer(f: TransverseField, focal: float) -> TransverseField:
    """Far-field (focal-plane) pattern behind an ideal lens.

    Output coordinates are x' = q * focal * lambda / (2 pi); the output
    grid keeps n samples and the total power is conserved exactly.
    """
    if not focal > 0:
        raise ValueError("focal length must be positive")
    coord_scale = focal * f.wavelength / (2.0 * np.pi)
    out_grid = _focal_grid(f.grid, focal, f.wavelength)
    # amplitude rescaled so sum |out|^2 dx'^2 == sum |S|^2 dq^2
    values = transform_to_spectrum(f) / coord_scale
    return TransverseField(out_grid, values, f.wavelength)


def _focal_grid(grid: GridSpec, focal: float, wavelength: float) -> GridSpec:
    """Grid of the far field of ``grid`` behind a lens of focal length ``focal``."""
    return GridSpec(grid.n, grid.n * grid.q_pitch * (focal * wavelength / (2.0 * np.pi)))


def project_and_couple(f: TransverseField, target: QuditState, w0: float) -> complex:
    """Amplitude coupled into the fiber after projecting onto ``target``.

    Returns <synthesize(target)|f>; detection probability is |result|^2.
    """
    mode = synthesize(target, w0, f.grid, f.wavelength)
    return inner_product(mode, f)


def export_pgm_hologram(h: PhaseHologram, path) -> None:
    """Write the binary mask as an 8-bit PGM, gray = phase * 255 / pi: 0 or 255."""
    write_pgm(path, h.phase * 255.0 / np.pi, 255)


def focal_basis_phases(charges) -> np.ndarray:
    """Fourier-plane propagation phases (-i)^|l| of the p=0 LG family.

    A single lens multiplies each constituent mode by (-i)^|l|; undoing
    these phases expresses focal-plane mode amplitudes in the same basis
    convention as the mask plane.
    """
    return np.array([(-1j) ** abs(c) for c in charges])
