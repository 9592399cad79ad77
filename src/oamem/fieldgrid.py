"""Transverse field grids, inner products, and the unitary 2-D spectral transform.

A transverse plane is sampled on a square grid of ``n`` pixels per side.
Fields carry a complex envelope per pixel; spectra carry the envelope's
angular-frequency content on the matching ``q`` grid (rad/m).  The
transform uses the symmetric 1/(2*pi) continuous convention,
discretized so that the physical L2 norm (pixel value times pixel area)
is conserved exactly:

    S(q) = (1 / 2 pi) * sum f(rho) exp(-i q . rho) dx^2
    sum |S|^2 dq^2 == sum |f|^2 dx^2

A field is held in one of three representations, and only
:class:`TransverseField` decides between them:

* sampled: its n x n ``samples``, such as a hologram's far field.  It
  computes and caches one forward spectrum (``spectrum``); filtering
  scales a copy of that spectrum by the kernel along both axes and
  inverts it, giving a new sampled field; the power of its spectrum is
  folded from row slices of the cached one, and its values are streamed
  as row slices of the samples.
* factored: when it is separable, only its 1-D factors
  (:class:`Separable`, Y^T M X).  An ideal source's field and spin wave
  are K <= |l| + 1 real rows of n samples on each axis and a K x K
  matrix; under a low-rank phase sum_r u_r(y) v_r(x)
  (:meth:`TransverseField.phased`) they become K R complex rows on each
  axis.  Filtering transforms the rows (K n log n work) and stays
  factored; the power of its spectrum, folded into a quarter plane, is
  held as rows contracted from the 1-D row transforms, so no n x n
  spectrum exists;
  a projection onto separable modes contracts the rows alone (K^2 n
  work); its values are streamed as blocks contracted from the rows.
* streamed: a function that computes its row blocks as they are
  requested, such as a wave times a dense phase map.

All stream in blocks of ``BLOCK_ROWS`` rows
(:meth:`TransverseField.row_blocks`), so that work that needs one row
of an n x n array at a time holds about 64 n samples instead of n^2.
A factored or streamed field builds its n x n ``values`` only when
something reads them, such as the exporters of ``render``, by stacking
those same blocks, so there is one way to build them.
:meth:`TransverseField.contract` contracts a field with 1-D rows on
both axes, as a projection onto separable modes does: from the factors
of a factored field, else block by block.
:meth:`TransverseField.folded_power` folds |S|^2 by frequency
magnitude for the diffraction check; a factored field keeps it as rows
(:class:`FoldedPower`), so the check reads only the blocks it needs.

Every contraction over a grid axis on a campaign's path is an
``np.einsum`` without ``optimize``, which runs in the calling thread:
no ``@``, ``np.dot``, ``tensordot`` or ``einsum(optimize=...)``.  Those
call BLAS (``einsum(optimize=True)`` through ``tensordot``), which may
split a product over its threads once it is large enough (the d x d
algebra of tomography never is).  The package loads numpy with a
one-thread OpenBLAS (module ``oamem``), but a user may set
``OPENBLAS_NUM_THREADS`` or import numpy first and so keep a pool.
With einsum, such a pool changes no output byte (CI reruns the seed-1
golden configs with two BLAS threads) and never wakes: when the pool
was there by default, three complex matrix-vector products in the
low-rank Larmor phase, at about 9 terms and n = 512, burned 2-60 ms of
CPU on other threads per decay campaign of 35-50 ms (benchmark seeds
1-3, 2-vCPU VM), against none with ``einsum``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
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
        # the pixel areas in real and frequency space scale every transform
        areas = (self.pitch * self.pitch, self.q_pitch * self.q_pitch)
        if not all(np.finfo(float).tiny <= a < np.inf for a in areas):
            raise ValueError(f"extent {self.extent:g} at n = {self.n} gives pixel areas "
                             f"{areas[0]:g} m^2 and {areas[1]:g} rad^2/m^2: not normal floats")
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


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


def _check_finite(a: np.ndarray, what: str) -> None:
    # a contiguous complex128 array, viewed as float64
    if not np.all(np.isfinite(a.view(np.float64))):
        raise NonFiniteField(f"{what} must be finite")


def row_blocks(values: np.ndarray) -> Iterator[np.ndarray]:
    """``values`` as consecutive views of BLOCK_ROWS rows."""
    return (values[start:start + BLOCK_ROWS] for start in range(0, len(values), BLOCK_ROWS))


def stack_rows(blocks: Iterable[np.ndarray], n: int) -> np.ndarray:
    """The n x n complex array whose consecutive row blocks ``blocks`` yields, as a new array.

    Each block is copied as it arrives, so a block may be a buffer that
    the next one overwrites.
    """
    values = np.empty((n, n), dtype=np.complex128)
    start = 0
    for block in blocks:
        values[start:start + len(block)] = block
        start += len(block)
    return values


def contract_rows(blocks: Iterable[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """sum_yx rows[j, y] F[y, x] rows[k, x] for the real K x n ``rows``, F given by its row blocks.

    Each block of F is contracted with every row at once as it arrives,
    so F never needs to exist.  Raises ValueError unless the blocks hold
    n rows.
    """
    n = rows.shape[1]
    # einsum keeps BLAS threads idle; it would cast the real rows to
    # complex for every block, so they are cast once, to the same numbers
    factors = rows.astype(np.complex128)
    rows_by_factor = np.empty((n, len(rows)), dtype=np.complex128)
    start = 0
    for block in blocks:
        np.einsum("yx,kx->yk", block, factors, out=rows_by_factor[start:start + len(block)])
        start += len(block)
        # dropped before the next block is built
        del block
    if start != n:
        raise ValueError(f"blocks hold {start} rows, the grid has {n}")
    return np.einsum("jy,yk->jk", rows, rows_by_factor)


def _fold(a: np.ndarray) -> np.ndarray:
    """``a`` summed over the DFT indices of equal magnitude on its last axis, as a new array.

    Index j of n holds frequency j for j <= n/2 and j - n above, so the
    n/2 + 1 magnitudes 0 .. n/2 each collect index j and n - j.
    """
    half = a.shape[-1] // 2
    folded = a[..., :half + 1].copy()
    folded[..., 1:half] += a[..., :half:-1]
    return folded


@dataclass(frozen=True)
class FoldedPower:
    """A quarter plane of folded |S|^2, entry [i, j] = sum_k left[k, i] right[k, j], as its rows.

    It gives what the diffraction check reads of a plane: its side
    ``len``, its total ``sum()``, from the K row sums on each axis, and
    a leading block ``[:w, :w]``, contracted from the rows' first w
    entries, so that no (n/2 + 1)^2 plane is built unless ``[:, :]``
    asks for all of it.
    """

    left: np.ndarray
    right: np.ndarray

    def __len__(self) -> int:
        return self.left.shape[1]

    def sum(self) -> float:
        return float(np.einsum("k,k->", self.left.sum(axis=1), self.right.sum(axis=1)))

    def __getitem__(self, block: tuple[slice, slice]) -> np.ndarray:
        rows, cols = block
        return np.einsum("ki,kj->ij", self.left[:, rows], self.right[:, cols])


@dataclass(frozen=True)
class Separable:
    """An n x n array held as 1-D y-rows, x-rows and the matrix that mixes them.

    The array is Y^T M X, sum_jk rows[j, y] mix[j, k] xrows[k, x] (rows
    are y, as in ``GridSpec.mesh``), so an operator that factors over x
    and y acts on the 1-D rows instead of the n x n samples.  An ideal
    source's field passes its K real rows as both ``rows`` and ``xrows``;
    a wave under a low-rank phase (:meth:`phased`) has K R complex rows
    on each axis.  All three arrays are held as read-only complex128.
    """

    rows: np.ndarray = field(repr=False)
    mix: np.ndarray = field(repr=False)
    xrows: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("rows", "mix", "xrows"):
            a = _freeze(getattr(self, name))
            object.__setattr__(self, name, a)
            _check_finite(a, "field factors")

    def row_blocks(self) -> Iterator[np.ndarray]:
        """The array, BLOCK_ROWS rows at a time; einsum keeps BLAS threads idle."""
        n = self.rows.shape[1]
        inner = np.einsum("jk,kx->jx", self.mix, self.xrows)
        for start in range(0, n, BLOCK_ROWS):
            yield np.einsum("jy,jx->yx", self.rows[:, start:start + BLOCK_ROWS], inner)

    def filtered(self, k1: np.ndarray) -> "Separable":
        """This array with its 2-D spectrum multiplied by k1(q_x) k1(q_y).

        One ``fft`` and one ``ifft`` of the K rows of each axis: K n log n
        work, and the result stays factored.
        """
        return Separable(np.fft.ifft(np.fft.fft(self.rows, axis=1) * k1, axis=1), self.mix,
                         np.fft.ifft(np.fft.fft(self.xrows, axis=1) * k1, axis=1))

    def phased(self, u: np.ndarray, v: np.ndarray) -> "Separable":
        """This array times the rank-R map sum_r u[r, y] v[r, x], still factored.

        Row (j, r) is rows[j] u[r] on y and xrows[j] v[r] on x, and the mix
        is M kron 1_R, so the product has K R rows on each axis.
        """
        n = self.rows.shape[1]
        rows = (self.rows[:, None, :] * u[None]).reshape(-1, n)
        xrows = (self.xrows[:, None, :] * v[None]).reshape(-1, n)
        return Separable(rows, np.kron(self.mix, np.eye(len(u))), xrows)

    def folded_power(self) -> "FoldedPower":
        """|S|^2 of this array's 2-D DFT S, folded by frequency magnitudes, from its 1-D rows.

        See ``TransverseField.folded_power``.  The K^2 products of row
        spectra per axis, folded, take K^2 (n/2 + 1) entries.  Both factors
        of the last contraction are Hermitian in (b, d), so its real part
        is the diagonal plus twice the real part above it: the plane is a
        contraction of K^2 real rows per axis, which are kept as they are.
        """
        f = np.fft.fft(self.rows, axis=1)
        g = np.fft.fft(self.xrows, axis=1)
        # [a, c, i]: conj(F_a) F_c summed over the frequencies of magnitude i
        folded_y = _fold(f.conj()[:, None] * f)
        folded_x = _fold(g.conj()[:, None] * g)
        # [b, d, i]: sum_ac conj(M_ab) M_cd folded_y[a, c, i]
        mixed = np.einsum("ab,cd,aci->bdi", self.mix.conj(), self.mix, folded_y)
        upper = np.arange(len(mixed))[:, None] < np.arange(len(mixed))
        up, x_up = mixed[upper], folded_x[upper]
        left = np.concatenate((np.einsum("bbi->bi", mixed).real, 2 * up.real, -2 * up.imag))
        right = np.concatenate((np.einsum("bbi->bi", folded_x).real, x_up.real, x_up.imag))
        return FoldedPower(left, right)

    def contract(self, rows: np.ndarray) -> np.ndarray:
        """sum_yx rows[j, y] A[y, x] rows[k, x] of this array A, from its 1-D rows alone."""
        left = np.einsum("jy,ay->ja", rows, self.rows)
        right = np.einsum("bx,kx->bk", self.xrows, rows)
        return np.einsum("ja,ab,bk->jk", left, self.mix, right)


@dataclass(frozen=True)
class TransverseField:
    """Complex envelope sampled on a grid, with the carrier wavelength.

    The same type holds an optical field and the spin wave that stores
    it.  A field holds exactly one of ``samples``, its n x n values;
    ``factors``, the same values as a :class:`Separable`; and ``stream``,
    a function that yields them in row blocks, computed as they are
    requested.  ``values`` reads any of them.  Given factors, or else a
    given stream, are the field: samples passed with them are dropped.
    Fields are immutable after construction; operations return new
    fields, and any new samples drop the factors.
    """

    grid: GridSpec
    samples: np.ndarray | None = field(repr=False)
    wavelength: float
    factors: Separable | None = field(default=None, repr=False)
    stream: Callable[[], Iterator[np.ndarray]] | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.grid.n
        if self.factors is not None or self.stream is not None:
            object.__setattr__(self, "samples", None)
            if self.factors is not None and self.factors.rows.shape[1] != n:
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

    @cached_property
    def values(self) -> np.ndarray:
        """The read-only n x n samples; other fields stack their row blocks on first read."""
        if self.samples is not None:
            return self.samples
        values = stack_rows(self.row_blocks(), self.grid.n)
        _check_finite(values, "field values")
        values.flags.writeable = False
        return values

    def row_blocks(self) -> Iterator[np.ndarray]:
        """``values``, BLOCK_ROWS rows at a time, without building them.

        A streamed block is valid until the next one is requested.
        """
        if self.factors is not None:
            return self.factors.row_blocks()
        if self.stream is not None:
            return self.stream()
        return row_blocks(self.samples)

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only unnormalized 2-D DFT of ``values``, computed once per field.

        Two 1-D passes (x, then y, the order of ``np.fft.fft2``), the
        second in place.  Only a field without ``factors`` needs it:
        :meth:`filtered`, :meth:`folded_power` and :meth:`contract` of a
        field with factors run on their 1-D rows.
        """
        spectrum = np.fft.fft(self.values, axis=1)
        np.fft.fft(spectrum, axis=0, out=spectrum)
        spectrum.flags.writeable = False
        return spectrum

    def folded_power(self) -> np.ndarray | FoldedPower:
        """|S|^2 of the unnormalized 2-D DFT S of ``values``, folded into a quarter plane.

        Entry [i, j] sums |S|^2 over the frequency indices of magnitudes
        |i| on y and |j| on x, so the plane is (n/2 + 1) x (n/2 + 1).
        Factored values V = Y^T M X have the spectrum S = F^T M G, with F
        and G the 1-D DFTs of the y- and x-rows, so
        |S|^2 = sum conj(M_ab) M_cd conj(F_a) F_c (q_y) conj(G_b) G_d (q_x):
        each of the K^2 products of row spectra is folded to n/2 + 1
        entries on its axis, and the folds and those K^2 x K^2
        coefficients give a :class:`FoldedPower`, with no block of S, no
        n x n array and no plane.  Other values fold |S|^2 of their
        cached :attr:`spectrum` into the plane, one block of BLOCK_ROWS
        rows at a time.
        """
        if self.factors is not None:
            return self.factors.folded_power()
        n = self.grid.n
        half = n // 2
        magnitudes = np.abs(np.fft.fftfreq(n, d=1.0 / n)).astype(np.intp)
        quarter = np.zeros((half + 1, half + 1))
        for start, block in zip(range(0, n, BLOCK_ROWS), row_blocks(self.spectrum)):
            power = np.abs(block)
            power *= power
            np.add.at(quarter, magnitudes[start:start + len(power)], _fold(power))
        return quarter

    def filtered(self, k1: np.ndarray) -> "TransverseField":
        """This field with its spectrum multiplied by k1(q_x) k1(q_y).

        ``k1`` is real and even, in ``np.fft.fftfreq`` order.  Factored
        values filter their 1-D rows (``Separable.filtered``) and the
        field stays factored; other values scale a copy of their cached
        :attr:`spectrum` along both axes and invert it in place.
        """
        if self.factors is not None:
            return TransverseField(self.grid, None, self.wavelength, self.factors.filtered(k1))
        filtered = self.spectrum * k1
        filtered *= k1[:, None]
        np.fft.ifft(filtered, axis=1, out=filtered)
        np.fft.ifft(filtered, axis=0, out=filtered)
        return self.with_values(filtered)

    def phased(self, terms: Callable[[], tuple[np.ndarray, np.ndarray] | None],
               rows: Callable[[Iterator[np.ndarray]], Iterator[np.ndarray]]) -> "TransverseField":
        """This field times the n x n phase map that two functions stand for, no map built.

        ``terms()`` is the map as low-rank terms (u, v), the map being
        sum_r u[r, y] v[r, x], or None when it has none worth using;
        ``rows(blocks)`` yields the row blocks of a field times the map.
        A factored field under a low-rank map stays factored
        (``Separable.phased``), with no n x n array; any other field
        streams ``rows`` of its row blocks, and ``terms`` is not called.
        """
        uv = terms() if self.factors is not None else None
        if uv is not None:
            return TransverseField(self.grid, None, self.wavelength, self.factors.phased(*uv))
        return TransverseField(self.grid, None, self.wavelength,
                               stream=lambda: rows(self.row_blocks()))

    def contract(self, rows: np.ndarray) -> np.ndarray:
        """sum_yx rows[j, y] F[y, x] rows[k, x] of ``values`` F, for real K x n ``rows``.

        Factored values contract their 1-D rows (``Separable.contract``,
        O(K^2 n) work); sampled and streamed values contract their row
        blocks as they come (:func:`contract_rows`).
        """
        if self.factors is not None:
            return self.factors.contract(rows)
        return contract_rows(self.row_blocks(), rows)

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

    Norm-preserving: sum |S|^2 q_pitch^2 equals sum |f|^2 pixel_area to machine precision.
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
    write_pgm(path, inten * 65535.0, 65535)


def write_pgm(path, data: np.ndarray, maxval: int) -> None:
    """Write ``data``, rounded to levels 0 .. maxval, as a binary PGM (row-major).

    Levels take one byte up to maxval 255 and two big-endian bytes above.
    """
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(np.round(data).astype("u1" if maxval < 256 else ">u2").tobytes())


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
