"""Decoherence channels of the stored spin wave.

Two physical mechanisms act on the transverse coherence pattern:

* ballistic free expansion of the cold ensemble, a Gaussian blur whose
  per-axis variance grows as sigma^2 = k_B T t_s^2 / m, applied as a
  spectral contraction exp(-q^2 sigma^2 / 2);
* spatially inhomogeneous Larmor precession in the residual magnetic
  field, a pure per-pixel phase exp(i dOmega(rho) t_s).

:func:`decohere` gives the decohered wave of one storage time as
:class:`~oamem.fieldgrid.TransverseField` holds it, factored, streamed or
sampled, without building an n x n array: a campaign projects it as it
is held, and ``render`` reads its ``values``, built on first read.
The operator order is blur, then phase: the phase is taken at each
atom's final position.  Nothing that does not depend on t_s is rebuilt.
The spin wave is a :class:`~oamem.fieldgrid.TransverseField`, which
carries out the blur itself (``TransverseField.filtered``; a hologram's
far field caches one spectrum for it), and the blur width reads the
ensemble's temperature and mass from the memory's
:class:`~oamem.polariton.MemoryParams` (``MemoryParams.sigma``).

The phase exp(i dOmega t_s) of an ideal source's factored wave is a
low-rank sum sum_r u_r(y) v_r(x), built by adaptive cross approximation
from a few rows and columns of the map (:func:`_phase_terms`), and the
wave stays factored, with K R rows on each axis: no n x n phase map, no
n x n cos or sin, no n x n array.  The sum is certified once per storage
time against the exact phase on PHASE_PROBES probe rows and as many
probe columns, which include the grid's four edges; dOmega on them is
computed once per (model, grid) pair.  A map whose terms do not converge
within n // PHASE_RANK_DIVISOR terms, and every hologram's far field,
take the dense fallback: the Larmor map dOmega(x, y), built once per
(model, grid) pair, and its cos and sin, one block of rows at a time
(:func:`_dephased`).  dOmega t_s is checked to be finite wherever it is
formed, before any exp, cos or sin: the low-rank phase checks it on the
probe lines and on every row and column it evaluates, so a factored wave
raises in :func:`decohere`; the dense phase checks each block of the
map as it streams it.

End-to-end retrieval efficiency is a separate, empirical exponential
decay fitted to two measured anchor points.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteField
from .fieldgrid import BLOCK_ROWS, GridSpec, TransverseField
from .polariton import MemoryParams

# reference end-to-end efficiencies used as default decay anchors
DEFAULT_EFFICIENCY_ANCHORS = ((10e-6, 0.1074), (400e-6, 0.0473))
# the low-rank Larmor phase (_phase_terms, whose docstring gives the measurements):
# probe rows, and as many columns, on which its residual is checked
PHASE_PROBES = 16
# the largest residual entry allowed on the probes; phase entries have modulus 1
PHASE_TOL = 3e-13
# past n // PHASE_RANK_DIVISOR terms the dense phase is cheaper
PHASE_RANK_DIVISOR = 8


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
    """``s`` after t_s of free expansion, then Larmor dephasing, as ``TransverseField`` holds it.

    A channel left None is off, and ``diffusion`` is the memory whose
    temperature and mass set the blur.  The blur is ``s.filtered``; the
    phase is ``s.phased`` of the low-rank terms (:func:`_phase_terms`)
    and the dense rows (:func:`_dephased`), so a factored wave stays
    factored under a low-rank phase and any other wave streams times the
    dense phase in row blocks.  No n x n array is built: a campaign
    projects the wave as it is held, and ``render`` reads its ``values``,
    built on first read.  Raises NonFiniteField, naming the phase and
    t_s, when dOmega t_s is not finite where it is formed: here for a
    factored wave, on the low-rank phase's probe lines and evaluated rows
    and columns, and for a streamed one when the block of the map is
    streamed.  With no channel on (t_s = 0), returns ``s``.
    """
    if t_s < 0:
        raise ValueError("storage time must be >= 0")
    if diffusion is not None and t_s > 0.0:
        s = s.filtered(_blur_kernel(s.grid, diffusion.sigma(t_s), t_s))
    if magnetic is not None and t_s > 0.0:
        grid = s.grid
        s = s.phased(lambda: _phase_terms(magnetic, grid, t_s),
                     lambda blocks: _dephased(blocks, grid, magnetic, t_s))
    return s


def diffuse(s: TransverseField, p: MemoryParams, t_s: float) -> TransverseField:
    """Free expansion of the stored coherence over t_s seconds.

    The spectral kernel exp(-q^2 sigma^2 / 2) is a contraction, so the
    coherence norm never grows; t_s = 0 is the identity.
    """
    return decohere(s, t_s, diffusion=p)


def _blur_kernel(grid: GridSpec, sigma: float, t_s: float) -> np.ndarray:
    """exp(-q^2 sigma^2 / 2) on the ``np.fft.fftfreq`` axis of ``grid``.

    Raises NonFiniteField, naming sigma and t_s, when sigma^2 overflows.
    A finite sigma^2 whose product with q^2 overflows gives the kernel
    exp(-inf) = 0 there, which is its value, so that overflow is silent.
    """
    q = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.pitch)
    try:
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * q ** 2 * sigma ** 2)
    except OverflowError:
        raise NonFiniteField(f"field values must be finite: the blur width sigma = "
                             f"{sigma:g} m at t_s = {t_s:g} s has no finite square") from None


def _peak(omega: np.ndarray) -> float:
    """max |dOmega| of ``omega``; inf when an entry overflows and NaN when one is NaN."""
    # ndarray.max and .min, unlike max, carry a NaN through, to both ends
    return max(float(omega.max()), -float(omega.min()))


def _check_phase(peak: float, t_s: float) -> None:
    """Raises NonFiniteField, naming the Larmor phase and t_s, unless peak t_s is finite."""
    # a float product overflows to inf without a warning
    if not math.isfinite(peak * t_s):
        raise NonFiniteField(f"field values must be finite: the Larmor phase dOmega t_s "
                             f"reaches {peak * t_s:g} rad at t_s = {t_s:g} s")


def _rotation(shift: np.ndarray, t_s: float, out: np.ndarray) -> np.ndarray:
    """exp(i shift t_s), with ``shift`` broadcast, written into the complex ``out`` and returned.

    The phase is formed in ``out.imag``, so no temporary is made.
    """
    np.multiply(shift, t_s, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


@lru_cache(maxsize=1)
def _larmor_map(mdl: MagneticModel, grid: GridSpec) -> np.ndarray:
    """Read-only angular shift dOmega(x, y) of ``mdl`` on ``grid`` in rad/s.

    Built once per (model, grid) pair, BLOCK_ROWS rows at a time, and
    only for the dense phase of :func:`_dephased`, which checks its
    values.  Rows are y, as in ``GridSpec.mesh``; the axes broadcast, so
    no mesh is built and the model's temporaries stay one block in size,
    and a ``field_at`` that ignores an axis gives a block that broadcasts
    over it.
    """
    xs, ys = grid.xs()[None, :], grid.ys()[:, None]
    omega = np.empty((grid.n, grid.n))
    for start in range(0, grid.n, BLOCK_ROWS):
        with np.errstate(over="ignore", invalid="ignore"):
            omega[start:start + BLOCK_ROWS] = mdl.angular_shift(xs, ys[start:start + BLOCK_ROWS])
    omega.flags.writeable = False
    return omega


@lru_cache(maxsize=1)
def _probe_shift(mdl: MagneticModel, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """The probes of :func:`_phase_terms`, dOmega of ``mdl`` on their lines, and its max |dOmega|.

    The PHASE_PROBES probe indices are evenly spaced from the first to
    the last, so the probe rows and columns hold the grid's four edges.
    dOmega in rad/s is [0, p, x] on the probe rows and [1, p, y] on the
    probe columns, read-only, from two calls of ``mdl.angular_shift``
    once per (model, grid) pair.
    """
    n = grid.n
    xs, ys = grid.xs(), grid.ys()
    probes = np.linspace(0, n - 1, PHASE_PROBES).round().astype(np.intp)
    shift = np.empty((2, len(probes), n))
    with np.errstate(over="ignore", invalid="ignore"):
        shift[0] = mdl.angular_shift(xs[None, :], ys[probes, None])
        shift[1] = mdl.angular_shift(xs[probes, None], ys[None, :])
    shift.flags.writeable = False
    return probes, shift, _peak(shift)


def _dephased(blocks: Iterator[np.ndarray], grid: GridSpec, mdl: MagneticModel,
              t_s: float) -> Iterator[np.ndarray]:
    """Each block of rows times exp(i dOmega t_s), built one block at a time.

    Every product is written into one phase buffer, which is yielded, so
    a yielded block is valid until the next one is requested; the input
    blocks are not written.  Each block of the Larmor map is checked to
    give a finite dOmega t_s before its cos and sin.
    """
    omega = _larmor_map(mdl, grid)
    rot = np.empty((min(BLOCK_ROWS, grid.n), grid.n), dtype=np.complex128)
    start = 0
    for block in blocks:
        shift = omega[start:start + BLOCK_ROWS]
        _check_phase(_peak(shift), t_s)
        _rotation(shift, t_s, rot)
        # block first: numpy's complex product is not bitwise commutative
        np.multiply(block, rot, out=rot)
        start += len(block)
        # dropped before the next block is built
        del block
        yield rot


def _worst_probe_entry(exact: np.ndarray, w: np.ndarray,
                       probes: np.ndarray) -> tuple[float, int, int, int, np.ndarray]:
    """The largest residual entry of the terms ``w`` on the probe lines, against ``exact``.

    ``w[0]`` holds the R rows u_r(y) and ``w[1]`` the R rows v_r(x); the
    terms are sum_r u_r(y_p) v_r(x) on probe row p and sum_r v_r(x_p) u_r(y)
    on probe column p.  ``exact`` is [line, p, n], line 0 the rows and 1
    the columns.  The terms on both lines, real and imaginary parts
    apart, come from one real ``np.einsum`` over the 2R real and
    imaginary parts of the terms, stacked, which keeps BLAS threads idle.
    Returns the entry's squared modulus, its line, p and index along the
    line, and the complex residual on that line.
    """
    r = w.shape[1]
    at_probes = w[:, :, probes].transpose(0, 2, 1)
    lines = w[::-1]
    # [line, part, p, k], against the 2R parts of the terms on the other axis, [line, k, x]
    coeffs = np.empty((2, 2, len(probes), 2 * r))
    coeffs[:, 0, :, :r] = coeffs[:, 1, :, r:] = at_probes.real
    coeffs[:, 1, :, :r] = at_probes.imag
    coeffs[:, 0, :, r:] = -at_probes.imag
    err = np.einsum("lcpk,lkx->lcpx", coeffs, np.concatenate((lines.real, lines.imag), axis=1))
    np.subtract(exact.real, err[:, 0], out=err[:, 0])
    np.subtract(exact.imag, err[:, 1], out=err[:, 1])
    size = np.einsum("lcpx,lcpx->lpx", err, err)
    line, p, k = np.unravel_index(np.argmax(size), size.shape)
    return float(size[line, p, k]), line, p, k, err[line, 0, p] + 1j * err[line, 1, p]


@lru_cache(maxsize=1)
def _phase_terms(mdl: MagneticModel, grid: GridSpec,
                 t_s: float) -> tuple[np.ndarray, np.ndarray] | None:
    """exp(i dOmega t_s) on ``grid`` as sum_r u[r, y] v[r, x], or None past the rank cutoff.

    Partial-pivot adaptive cross approximation (ACA; M. Bebendorf,
    Numer. Math. 86, 565 (2000)).  Term r is one row and one column of
    the residual map, each evaluated with ``mdl.angular_shift`` on 1-D
    coordinates, so no n x n array and no n x n cos or sin is formed.
    The next pivot row is the largest entry of the newest column among
    rows not yet pivots.  When the terms reproduce a pivot row to
    PHASE_TOL in every entry, they are certified once against the exact
    phase on the PHASE_PROBES probe rows and as many columns of
    :func:`_probe_shift`: the terms stop when the residual there is at
    most PHASE_TOL in every entry, and otherwise the search restarts at
    the worst probe entry.  They give up (None) past n //
    PHASE_RANK_DIVISOR terms.  Raises NonFiniteField, naming t_s, when
    dOmega t_s is not finite on the probe lines or on a row or column it
    evaluates.  The returned arrays are read-only.

    The constants rest on measurements against the dense exp(i dOmega t)
    on the benchmark workloads (seeds 1-3, every storage time, n = 512)
    and on a cone (no guiding field, apex on the grid, up to 121 rad,
    n = 32-512).  At a 1e-12 threshold, entries off the probes reached
    6e-6 on the cone with 8 probes (n = 32) and 1.3e-12 to 5.5e-12 with
    16 or 32; 16 probes at 3e-13 kept every map within 6.1e-13 of the
    dense phase, under 1e-12, at 5-11 terms on the workloads and 17-43
    on the cone.  A threshold of 1e-13 takes up to 15 terms where 3e-13
    takes 10 (seed-1 decay workload), for no gain against 1e-12.  Each
    term costs about 0.06 ms at n = 256, 0.08 ms at 512 and 0.11 ms at
    1024, on top of 0.2-0.5, 0.25-0.7 and 0.8-2.3 ms for the exact phase
    on the probe lines and its certificates (slopes over runs cut at 1
    to R - 1 terms, on the seed-1 maps of both workloads at every storage
    time, best of 7, 2-vCPU VM).  So a point's low-rank phase breaks even
    with the dense one at about 23-28 terms at n = 256, 76-94 at 512 and
    235-288 at 1024 (dense points of 2.0-2.3, 7.3-8.4 and 28.5-34.6 ms):
    the cutoff n // 8 (32, 64, 128) lies above break-even at n = 256 and
    below it at 512 and 1024.  A map that does not converge also pays
    its dense point, so the cutoff lets it cost at most about 2.2 times
    its dense point at n = 256, 1.8 times at 512 and 1.6 times at 1024.

    The residual rows and columns subtract the terms so far with
    ``np.einsum``, not ``@``, so a BLAS pool that the user kept (module
    ``oamem`` loads a one-thread OpenBLAS by default) changes no byte
    and stays asleep: a complex matrix-vector product of about 9 terms
    at n = 512 woke such a pool, which burned 2-60 ms of CPU on other
    threads per decay campaign of 35-50 ms (2-vCPU VM).  No ``@``,
    ``np.dot``, ``tensordot`` or ``einsum(optimize=...)`` contracts a
    grid axis on a campaign's path (module ``fieldgrid``).
    """
    n = grid.n
    xs, ys = grid.xs(), grid.ys()
    probes, shift, peak = _probe_shift(mdl, grid)
    _check_phase(peak, t_s)

    def phase(x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            line = np.asarray(mdl.angular_shift(x, y))
        _check_phase(_peak(line), t_s)
        # broadcast, for a map that ignores the line's axis
        return _rotation(line, t_s, np.empty(n, dtype=np.complex128))

    rank = max(1, n // PHASE_RANK_DIVISOR)
    # the terms so far, u in w[0] and v in w[1]; room for 16, doubled when full
    w = np.empty((2, min(rank, 16), n), dtype=np.complex128)
    free = np.ones(n, dtype=bool)
    exact = _rotation(shift, t_s, np.empty(shift.shape, dtype=np.complex128))
    r, i = 0, n // 2
    residual = phase(xs, ys[i])
    while True:
        j = int(np.argmax(np.abs(residual)))
        if abs(residual[j]) <= PHASE_TOL:
            worst, line, p, k, probe_line = _worst_probe_entry(exact, w[:, :r], probes)
            if worst <= PHASE_TOL ** 2:
                # copies, so that the cache keeps R rows and not the whole buffer
                u, v = w[0, :r].copy(), w[1, :r].copy()
                u.flags.writeable = v.flags.writeable = False
                return u, v
            # restart at the worst probe entry
            if line == 0:
                i, j, residual = probes[p], k, probe_line
            else:
                i, j = k, probes[p]
                residual = phase(xs, ys[i]) - np.einsum("r,rx->x", w[0, :r, i], w[1, :r])
        if r == rank:
            return None
        if r == w.shape[1]:
            w = np.concatenate((w, np.empty_like(w)), axis=1)
        free[i] = False
        w[1, r] = residual / residual[j]
        w[0, r] = phase(xs[j], ys) - np.einsum("r,ry->y", w[1, :r, j], w[0, :r])
        i = int(np.argmax(np.where(free, np.abs(w[0, r]), -1.0)))
        r += 1
        residual = phase(xs, ys[i]) - np.einsum("r,rx->x", w[0, :r, i], w[1, :r])


def magnetic_dephase(s: TransverseField, mdl: MagneticModel, t_s: float) -> TransverseField:
    """Pixel-wise Larmor phase exp(i dOmega t_s) accumulated over t_s; magnitudes untouched."""
    return decohere(s, t_s, magnetic=mdl)


def longitudinal_drift_factor(p: MemoryParams, t_s: float) -> float:
    """Amplitude retained against ballistic drift along z.

    One-dimensional analogue of the transverse blur applied to the
    exp(i dk z) spin-wave phase, dk = ``p.delta_k``: exp(-dk^2 sigma_z^2 / 2)
    with sigma_z^2 = k_B T t_s^2 / m.  Equals 1 for collinear beams (dk = 0).
    Raises NonFiniteField, naming sigma_z and t_s, when (dk sigma_z)^2 overflows.
    """
    try:
        return math.exp(-0.5 * (p.delta_k * p.sigma(t_s)) ** 2)
    except OverflowError:
        raise NonFiniteField(f"the drift factor must be finite: (dk sigma_z)^2 / 2 "
                             f"overflows at sigma_z = {p.sigma(t_s):g} m, t_s = {t_s:g} s"
                             ) from None
