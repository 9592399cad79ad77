"""Laguerre-Gaussian OAM basis modes and qudit superpositions.

The qudit basis is a p=0 Laguerre-Gaussian family sharing one waist:
|L> carries charge +l, |R> carries -l, and the qutrit adds |G> with
charge 0.  Basis ordering is fixed as [L, R] for qubits and [L, G, R]
for qutrits so density-matrix indexing is unambiguous everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, GridTooSmall
from .fieldgrid import GridSpec, Separable, TransverseField


@dataclass(frozen=True)
class LGModeSpec:
    """A single LG_{l,p=0} mode of waist ``w0`` (meters)."""

    l: int
    w0: float

    def __post_init__(self):
        if not self.w0 > 0:
            raise ValueError("waist must be positive")


def basis_charges(dim: int, l: int) -> tuple[int, ...]:
    """Charges of the ordered basis; the one place that decides which
    qudit dimensions a state or config may have."""
    if dim == 2:
        return (l, -l)
    if dim == 3:
        return (l, 0, -l)
    raise DimMismatch(f"qudit dimension must be 2 or 3, got {dim}")


@dataclass(frozen=True)
class QuditState:
    """Unit-norm coefficient vector over the ordered OAM basis.

    ``l`` is the magnitude of the topological charge carried by |L> / |R>.
    Coefficients are normalized on construction.
    """

    coeffs: np.ndarray = field(repr=True)
    l: int = 1

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise DimMismatch(f"coefficient vector must be one-dimensional, got {c.shape}")
        basis_charges(len(c), self.l)
        norm = np.linalg.norm(c)
        if norm == 0:
            raise ValueError("zero state vector")
        if self.l < 1:
            # a negative l would swap the charges of |L> and |R>
            raise ValueError(f"charge l must be >= 1, got {self.l}")
        c = c / norm
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def charges(self) -> tuple[int, ...]:
        return basis_charges(self.dim, self.l)


def qubit_state(gamma: float, beta: float, l: int = 1) -> QuditState:
    """Bloch-sphere qubit cos(gamma/2)|L> + sin(gamma/2) e^{i beta}|R>."""
    return QuditState(
        np.array([math.cos(gamma / 2.0),
                  math.sin(gamma / 2.0) * np.exp(1j * beta)]),
        l=l,
    )


# how far the sampled basis's Gram matrix may miss the identity: the golden
# configs reach 1.7e-6 (charges +-2 two pitches wide), 1.5 pitches miss by 3.7e-3
GRAM_TOL = 1e-3


def _support_check(l: int, w0: float, grid: GridSpec) -> None:
    if w0 * (1 + abs(l)) >= grid.extent / 4.0:
        raise GridTooSmall(
            f"mode l={l}, w0={w0:g} m needs extent > {4 * w0 * (1 + abs(l)):g} m, "
            f"grid has {grid.extent:g} m"
        )


@lru_cache(maxsize=4)
def _basis(charges: tuple, w0: float, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The LG_{l,0} modes of ``charges`` on the grid, as separable terms.

    With s = sgn(l), mode l is proportional to (x + i s y)^|l| g(x) g(y),
    g(u) = exp(-u^2 / w0^2), which the binomial theorem splits into

        sum_k C(|l|, k) (i s)^(|l| - k) outer(powers[|l| - k], powers[k])

    where powers[k] = (u / w0)^k g(u) on the grid axis (rows are y).  Mode i
    is powers^T mats[i] powers: mats[i] is K x K, K = max |l| + 1, with these
    coefficients / norm on the antidiagonal of its top-left block.  The
    discrete norm expands the same way through |x + i y|^(2|l|), so it needs
    only the 1-D moments sum powers[k]^2; the Gram matrix of the modes needs
    the cross moments sum powers[j] powers[k].  Raises GridTooSmall when a
    mode does not fit on the grid, when a norm is 0 (a waist far below the
    pitch leaves only the centre pixel, where a charged mode is 0), or when
    the Gram matrix misses the identity by more than GRAM_TOL.

    Built once per (charges, w0, grid) and read-only: the input field and
    every projection of a campaign share it.
    """
    for l in charges:
        _support_check(l, w0, grid)
    top = max(abs(l) for l in charges)
    u = grid.axis() / w0
    g = np.exp(-u * u)
    powers = np.array([u ** k * g for k in range(top + 1)])
    moments = np.sum(powers * powers, axis=1)
    mats = np.zeros((len(charges), top + 1, top + 1), dtype=np.complex128)
    norms = np.zeros(len(charges))
    for i, l in enumerate(charges):
        k = np.arange(abs(l) + 1)
        binom = np.array([math.comb(abs(l), j) for j in k], dtype=np.float64)
        norms[i] = math.sqrt(grid.pixel_area * float(np.sum(binom * moments[k] * moments[k[::-1]])))
        mats[i, k[::-1], k] = binom * (1j * math.copysign(1.0, l)) ** k[::-1]
    if not norms.min() > 0.0:
        raise GridTooSmall(f"modes {charges} of waist {w0:g} m have a zero norm on a grid "
                           f"of pitch {grid.pitch:g} m")
    # the unnormalized modes' Gram matrix, divided by the norms after the
    # sum, so that a tiny norm cannot overflow it
    cross = np.einsum("jy,ky->jk", powers, powers)
    gram = np.einsum("iab,jcd,ac,bd->ij", mats.conj(), mats, cross, cross) * grid.pixel_area
    error = float(np.max(np.abs(gram / norms / norms[:, None] - np.eye(len(charges)))))
    if not error <= GRAM_TOL:
        raise GridTooSmall(f"modes {charges} of waist {w0:g} m on a grid of pitch "
                           f"{grid.pitch:g} m are orthonormal only to {error:.2g}, "
                           f"above {GRAM_TOL:g}")
    mats /= norms[:, None, None]
    mats.flags.writeable = powers.flags.writeable = False
    return mats, powers


def _sample(charges: tuple, weights, w0: float, grid: GridSpec,
            wavelength: float) -> TransverseField:
    """sum_i weights[i] LG_{charges[i],0} on the grid, held as its factors.

    The weights fold the modes of :func:`_basis` into one K x K matrix C;
    the field is powers^T C powers, the same rows on both axes, and no
    n x n array is built until something reads its ``values``.
    """
    mats, powers = _basis(charges, w0, grid)
    factors = Separable(powers, np.einsum("i,ijk->jk", weights, mats), powers)
    return TransverseField(grid, None, wavelength, factors)


def lg_field(spec: LGModeSpec, grid: GridSpec, wavelength: float = 795e-9) -> TransverseField:
    """Sample a normalized LG_{l,0} mode on the grid.

    Amplitude ~ (sqrt(2) r / w0)^|l| exp(-r^2/w0^2) e^{i l phi}, normalized
    so its discrete norm is 1.
    """
    return _sample((spec.l,), (1.0,), spec.w0, grid, wavelength)


def synthesize(state: QuditState, w0: float, grid: GridSpec,
               wavelength: float = 795e-9) -> TransverseField:
    """Coherent sum of basis modes weighted by the state coefficients.

    Linear by construction (no output renormalization); the result has
    unit norm up to the residual grid non-orthogonality of the basis.
    """
    return _sample(state.charges(), state.coeffs, w0, grid, wavelength)


def decompose(f: TransverseField, l: int, dim: int, w0: float) -> np.ndarray:
    """Raw qudit-basis amplitudes <m|f> of the field ``f``.

    With the separable modes of :func:`_basis`, <m_i|f> is
    sum_jk conj(mats[i, j, k]) powers[j]^T F powers[k] dx^2, and ``f``
    contracts F with the cached 1-D factors itself
    (``TransverseField.contract``): a factored field, such as an ideal
    source's wave, from its own 1-D rows, any other field one block of
    rows at a time, so the n x n field F never needs to exist and no
    mode is sampled on the grid.
    """
    mats, powers = _basis(basis_charges(dim, l), w0, f.grid)
    # overlaps[j, k] = powers[j]^T F powers[k]
    overlaps = f.contract(powers)
    return np.einsum("ijk,jk->i", mats.conj(), overlaps) * f.grid.pixel_area


def state_from_field(f: TransverseField, l: int, dim: int, w0: float) -> QuditState:
    """Normalized qudit state carried by a field within the mode subspace."""
    return QuditState(decompose(f, l, dim, w0), l=l)
