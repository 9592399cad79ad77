"""Transverse field grids, inner products, and the unitary 2-D spectral transform.

A transverse plane is sampled on a square grid of ``n`` pixels per side.
Fields carry a complex envelope per pixel; spectra carry the envelope's
angular-frequency content on the matching ``q`` grid (rad/m).  The
transform uses the symmetric 1/(2*pi) continuous convention,
discretized so that the physical L2 norm (pixel value times pixel area)
is conserved exactly:

    S(q) = (1 / 2 pi) * sum f(rho) exp(-i q . rho) dx^2
    sum |S|^2 dq^2 == sum |f|^2 dx^2
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatch, NonFiniteField

MAX_GRID_N = 4096


@dataclass(frozen=True)
class GridSpec:
    """Square sampling grid: ``n`` pixels per side over ``extent`` meters.

    ``n`` must be a power of two (keeps the FFT fast and the centered
    transform exact) from 16 to MAX_GRID_N = 4096, so that one n x n
    complex128 array takes at most 256 MiB.  ``center`` is the physical
    position of the grid center in meters.
    """

    n: int
    extent: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not 16 <= self.n <= MAX_GRID_N:
            raise ValueError(f"grid needs 16 <= n <= {MAX_GRID_N}, got {self.n}")
        if self.n & (self.n - 1) != 0:
            raise ValueError(f"grid size must be a power of two, got {self.n}")
        if not self.extent > 0:
            raise ValueError(f"extent must be positive, got {self.extent}")
        # hashable, so that per-grid maps can be cached
        object.__setattr__(self, "center", tuple(self.center))

    @property
    def pitch(self) -> float:
        """Pixel pitch in meters, identical along x and y."""
        return self.extent / self.n

    @property
    def pixel_area(self) -> float:
        return self.pitch ** 2

    def axis(self) -> np.ndarray:
        """Pixel-center coordinates relative to the grid center."""
        return (np.arange(self.n) - self.n // 2) * self.pitch

    def xs(self) -> np.ndarray:
        return self.axis() + self.center[0]

    def ys(self) -> np.ndarray:
        return self.axis() + self.center[1]

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """X, Y coordinate arrays, shape (n, n), row index = y."""
        return np.meshgrid(self.xs(), self.ys())

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """Radius and azimuth about the grid center."""
        x, y = np.meshgrid(self.axis(), self.axis())
        return np.hypot(x, y), np.arctan2(y, x)

    @property
    def q_pitch(self) -> float:
        return 2.0 * np.pi / self.extent


def _freeze(a: np.ndarray, dtype=np.complex128) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Separable:
    """An n x n array held as K 1-D rows and a K x K matrix.

    ``array()`` is sum_jk rows[j, y] mix[j, k] rows[k, x] (rows are y, as
    in ``GridSpec.mesh``), so an operator that factors over x and y acts
    on the K rows instead of the n x n samples.  Both arrays are read-only.
    """

    rows: np.ndarray = field(repr=False)
    mix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", _freeze(self.rows, np.float64))
        object.__setattr__(self, "mix", _freeze(self.mix))

    def __setstate__(self, state):
        # unpickling skips __post_init__, so freeze its arrays here
        for a in state.values():
            a.flags.writeable = False
        self.__dict__.update(state)

    def array(self) -> np.ndarray:
        """The n x n array, as a new writable array."""
        # einsum keeps BLAS threads idle
        return np.einsum("jy,jx->yx", self.rows, np.einsum("jk,kx->jx", self.mix, self.rows))


@dataclass(frozen=True)
class TransverseField:
    """Complex envelope sampled on a grid, with the carrier wavelength.

    The same type holds an optical field and the spin wave that stores
    it.  Values are immutable after construction; operations return new
    fields.  ``factors``, when set, is ``values`` as a :class:`Separable`;
    any new values drop it.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    wavelength: float
    factors: Separable | None = field(default=None, repr=False)

    def __post_init__(self):
        v = _freeze(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise NonFiniteField("field values must be finite")
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")

    def __setstate__(self, state):
        # unpickling skips __post_init__, so freeze its arrays here
        for name in {"values", "spectrum"} & state.keys():
            state[name].flags.writeable = False
        self.__dict__.update(state)

    def norm(self) -> float:
        """Physical L2 norm sqrt(sum |f|^2 * pixel_area)."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.pixel_area))

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only unnormalized 2-D DFT of ``values``, computed once per field.

        Two 1-D passes (x, then y, the order of ``np.fft.fft2``), the
        second in place.
        """
        spectrum = np.fft.fft(self.values, axis=1)
        np.fft.fft(spectrum, axis=0, out=spectrum)
        spectrum.flags.writeable = False
        return spectrum

    def with_values(self, values: np.ndarray) -> "TransverseField":
        return TransverseField(self.grid, values, self.wavelength)


def _centered_fft2(v: np.ndarray) -> np.ndarray:
    # exact centered DFT for even n: index j -> coordinate (j - n/2)
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(v), norm="ortho"))


def _center_phase(grid: GridSpec) -> np.ndarray | float:
    cx, cy = grid.center
    if cx == 0.0 and cy == 0.0:
        return 1.0
    q = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(grid.n, d=grid.pitch))
    return np.exp(-1j * (q * cx + q[:, None] * cy))


def transform_to_spectrum(f: TransverseField) -> np.ndarray:
    """Unitary 2-D Fourier transform S of the envelope, on the centered q grid.

    Norm-preserving: sum |S|^2 q_pitch^2 equals ``f.norm() ** 2`` to machine precision.
    """
    g = f.grid
    scale = g.n * g.pixel_area / (2.0 * np.pi)
    return _centered_fft2(f.values) * scale * _center_phase(g)


def inner_product(a: TransverseField, b: TransverseField) -> complex:
    """Discrete <a|b> = sum conj(a) * b * pixel_area.

    Raises GridMismatch unless both fields share the same GridSpec.
    """
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
    return complex(np.vdot(a.values, b.values) * a.grid.pixel_area)


def export_pgm(f: TransverseField, path) -> None:
    """Write the intensity map as a 16-bit binary PGM (big-endian, row-major)."""
    inten = f.intensity()
    peak = inten.max()
    if peak > 0:
        inten = inten / peak
    data = np.round(inten * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{f.grid.n} {f.grid.n}\n65535\n".encode("ascii"))
        fh.write(data.tobytes())


def export_csv(f: TransverseField, path) -> None:
    """Write per-pixel (x, y, Re, Im) rows."""
    x, y = f.grid.mesh()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "re", "im"])
        for xi, yi, vi in zip(x.ravel(), y.ravel(), f.values.ravel()):
            w.writerow([repr(float(xi)), repr(float(yi)),
                        repr(float(vi.real)), repr(float(vi.imag))])
