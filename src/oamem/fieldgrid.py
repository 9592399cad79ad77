"""Transverse field grids, inner products, and the unitary 2-D spectral transform.

A transverse plane is sampled on a square grid of ``n`` pixels per side.
Fields carry a complex envelope per pixel; spectra carry the envelope's
angular-frequency content on the matching ``q`` grid (rad/m).  The
transform uses the symmetric 1/(2*pi) continuous convention,
discretized so that the physical L2 norm (pixel value times pixel area)
is conserved exactly:

    S(q) = (1 / 2 pi) * sum f(rho) exp(-i q . rho) dx^2
    sum |S|^2 dq^2 == sum |f|^2 dx^2

A field is held in one of two representations, and only
:class:`TransverseField` decides between them:

* sampled: its n x n ``samples``, such as a hologram's far field.  It
  computes and caches one forward spectrum (``spectrum``); filtering
  scales a copy of that spectrum by the kernel along both axes and
  inverts it, giving a new sampled field; its spectrum is streamed as
  row slices of the cached one, and its values as row slices of the
  samples.
* factored: when it is separable, only its 1-D factors
  (:class:`Separable`): an ideal source's field and spin wave are
  K <= |l| + 1 rows of n samples and a K x K matrix.  Filtering
  transforms the K real rows (K n log n work) and stays factored; its
  spectrum and its values are streamed as blocks contracted from the
  1-D row transforms and from the rows, so no n x n spectrum exists,
  and its n x n ``values`` are built only when something reads them,
  such as the exporters of ``render``.

Both stream in blocks of ``BLOCK_ROWS`` rows
(:meth:`TransverseField.row_blocks`,
:meth:`TransverseField.spectrum_blocks`), so that work that needs one
row of an n x n array at a time holds about 64 n samples instead of
n^2.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatch, NonFiniteField

MAX_GRID_N = 4096
# rows per block of a streamed n x n array: 64 rows of complex128 take n KiB
BLOCK_ROWS = 64


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


def _check_finite(a: np.ndarray, what: str) -> None:
    # a contiguous complex128 or float64 array, viewed as float64
    if not np.all(np.isfinite(a.view(np.float64))):
        raise NonFiniteField(f"{what} must be finite")


def row_blocks(values: np.ndarray) -> Iterator[np.ndarray]:
    """``values`` as consecutive views of BLOCK_ROWS rows."""
    return (values[start:start + BLOCK_ROWS] for start in range(0, len(values), BLOCK_ROWS))


@dataclass(frozen=True)
class Separable:
    """An n x n array held as K 1-D rows and a K x K matrix.

    The array is sum_jk rows[j, y] mix[j, k] rows[k, x] (rows are y, as
    in ``GridSpec.mesh``), so an operator that factors over x and y acts
    on the K rows instead of the n x n samples.  Both arrays are read-only.
    """

    rows: np.ndarray = field(repr=False)
    mix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", _freeze(self.rows, np.float64))
        object.__setattr__(self, "mix", _freeze(self.mix))
        _check_finite(self.rows, "field factors")
        _check_finite(self.mix, "field factors")

    def __setstate__(self, state):
        # unpickling skips __post_init__, so freeze its arrays here
        for a in state.values():
            a.flags.writeable = False
        self.__dict__.update(state)

    def row_blocks(self, size: int = BLOCK_ROWS) -> Iterator[np.ndarray]:
        """The array, ``size`` rows at a time.

        The real rows contract with the complex K x n matrix mix @ rows
        viewed as float64 pairs, so nothing is upcast to complex; einsum
        keeps BLAS threads idle.
        """
        k, n = self.rows.shape
        inner = np.einsum("jk,kx->jx", self.mix, self.rows).view(np.float64).reshape(k, n, 2)
        for start in range(0, n, size):
            block = np.einsum("jy,jxc->yxc", self.rows[:, start:start + size], inner)
            yield block.view(np.complex128).reshape(-1, n)

    def array(self) -> np.ndarray:
        """The n x n array, as a new writable array."""
        (values,) = self.row_blocks(len(self.rows[0]))
        return values


@dataclass(frozen=True)
class TransverseField:
    """Complex envelope sampled on a grid, with the carrier wavelength.

    The same type holds an optical field and the spin wave that stores
    it.  A field holds exactly one of ``samples``, its n x n values, and
    ``factors``, the same values as a :class:`Separable`; ``values``
    reads either.  Given factors are the field: samples passed with them
    are dropped.  Fields are immutable after construction; operations
    return new fields, and any new samples drop the factors.
    """

    grid: GridSpec
    samples: np.ndarray | None = field(repr=False)
    wavelength: float
    factors: Separable | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.grid.n
        if self.factors is not None:
            object.__setattr__(self, "samples", None)
            if self.factors.rows.shape[1] != n:
                raise ValueError(f"factor rows of length {self.factors.rows.shape[1]} "
                                 f"do not match grid n={n}")
        elif self.samples is None:
            raise ValueError("a field needs samples or factors")
        else:
            v = _freeze(self.samples)
            object.__setattr__(self, "samples", v)
            if v.shape != (n, n):
                raise ValueError(f"values shape {v.shape} does not match grid n={n}")
            _check_finite(v, "field values")
        if not self.wavelength > 0:
            raise ValueError("wavelength must be positive")

    def __setstate__(self, state):
        # unpickling skips __post_init__, so freeze its arrays here
        for name in {"samples", "values", "spectrum"} & state.keys():
            if state[name] is not None:
                state[name].flags.writeable = False
        self.__dict__.update(state)

    @cached_property
    def values(self) -> np.ndarray:
        """The read-only n x n samples; a factored field builds them on first read."""
        if self.factors is None:
            return self.samples
        values = self.factors.array()
        _check_finite(values, "field values")
        values.flags.writeable = False
        return values

    def row_blocks(self) -> Iterator[np.ndarray]:
        """``values``, BLOCK_ROWS rows at a time, without building them."""
        if self.factors is None:
            return row_blocks(self.samples)
        return self.factors.row_blocks()

    def norm(self) -> float:
        """Physical L2 norm sqrt(sum |f|^2 * pixel_area)."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.pixel_area))

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only unnormalized 2-D DFT of ``values``, computed once per field.

        Two 1-D passes (x, then y, the order of ``np.fft.fft2``), the
        second in place.  Only a field without ``factors`` needs it:
        :meth:`filtered` and :meth:`spectrum_blocks` of a field with
        factors run on their K 1-D rows.
        """
        spectrum = np.fft.fft(self.values, axis=1)
        np.fft.fft(spectrum, axis=0, out=spectrum)
        spectrum.flags.writeable = False
        return spectrum

    def spectrum_blocks(self) -> Iterator[np.ndarray]:
        """The unnormalized 2-D DFT of ``values``, BLOCK_ROWS rows at a time.

        Factored values V = R^T C R have the spectrum S = F^T C F with F
        the 1-D DFTs of the K rows, so each block of S is built from F
        and no n x n spectrum is formed or cached.  Sampled values are
        sliced from their cached :attr:`spectrum`.
        """
        if self.factors is None:
            yield from row_blocks(self.spectrum)
            return
        f = np.fft.fft(self.factors.rows, axis=1)
        # einsum keeps BLAS threads idle
        inner = np.einsum("jk,kx->jx", self.factors.mix, f)
        for start in range(0, self.grid.n, BLOCK_ROWS):
            yield np.einsum("jy,jx->yx", f[:, start:start + BLOCK_ROWS], inner)

    def filtered(self, k1: np.ndarray) -> "TransverseField":
        """This field with its spectrum multiplied by k1(q_x) k1(q_y).

        ``k1`` is real and even, in ``np.fft.fftfreq`` order.  Factored
        values filter their K real rows, which stay real, and the field
        stays factored; sampled values scale a copy of their cached
        :attr:`spectrum` along both axes and invert it in place.
        """
        if self.factors is not None:
            rows = np.fft.rfft(self.factors.rows, axis=1)
            rows *= k1[:rows.shape[1]]
            factors = Separable(np.fft.irfft(rows, self.grid.n, axis=1), self.factors.mix)
            return TransverseField(self.grid, None, self.wavelength, factors)
        filtered = self.spectrum * k1
        filtered *= k1[:, None]
        np.fft.ifft(filtered, axis=1, out=filtered)
        np.fft.ifft(filtered, axis=0, out=filtered)
        return self.with_values(filtered)

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
    """Write per-pixel (x, y, Re, Im) rows, row by row of the grid (y outer).

    The bytes are those of ``csv.writer``: repr of each float, comma
    separated, each line ended by \\r\\n.  Each block of BLOCK_ROWS grid
    rows is formatted and written at once.
    """
    xs = [repr(x) for x in f.grid.xs().tolist()]
    ys = [repr(y) for y in f.grid.ys().tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x,y,re,im\r\n")
        for start, block in zip(range(0, f.grid.n, BLOCK_ROWS), f.row_blocks()):
            rows = zip(ys[start:start + BLOCK_ROWS], block.real.tolist(), block.imag.tolist())
            fh.write("".join(f"{x},{y},{a!r},{b!r}\r\n"
                             for y, re, im in rows for x, a, b in zip(xs, re, im)))
