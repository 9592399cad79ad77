"""Density-matrix reconstruction and fidelity for OAM qubits and qutrits.

The projector sets are the five-basis qubit set {L, R, L+R, L+iR, L-R}
and the nine-basis qutrit set {L, G, R, G-L, G+R, G+iL, G-iR, L+iR,
L-R}; ``PROJECTION_SETS`` maps each supported dimension to its set.
Counts are normalized by the pole-basis subset (L+R for qubits, L+G+R
for qutrits), which resolves the identity and provides the flux
reference.  Reconstruction is linear inversion over Hermitian unit-trace
matrices, through one pseudo-inverse cached per projector set, followed
by eigenvalue clipping onto the physical set, with an optional
fixed-point maximum-likelihood refinement.  The fidelity is
sqrt(<psi|rho|psi>) against a pure reference ket.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimMismatch, InsufficientData, NoCounts, NotPSD
from .measurement import write_csv

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10


def _ket(entries) -> np.ndarray:
    v = np.asarray(entries, dtype=np.complex128)
    return v / np.linalg.norm(v)


QUBIT_PROJECTORS = (
    ("L", _ket([1, 0])),
    ("R", _ket([0, 1])),
    ("L+R", _ket([1, 1])),
    ("L+iR", _ket([1, 1j])),
    ("L-R", _ket([1, -1])),
)

# basis order [L, G, R]
QUTRIT_PROJECTORS = (
    ("L", _ket([1, 0, 0])),
    ("G", _ket([0, 1, 0])),
    ("R", _ket([0, 0, 1])),
    ("G-L", _ket([-1, 1, 0])),
    ("G+R", _ket([0, 1, 1])),
    ("G+iL", _ket([1j, 1, 0])),
    ("G-iR", _ket([0, 1, -1j])),
    ("L+iR", _ket([1, 0, 1j])),
    ("L-R", _ket([1, 0, -1])),
)


@dataclass(frozen=True)
class ProjectionSet:
    """Labeled pure-state projectors used for tomography.

    ``PROJECTION_SETS`` holds one shared instance per dimension, so the
    linear-inversion design of :func:`reconstruct`, cached per instance,
    is built once per process.
    """

    dim: int
    projectors: tuple

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.projectors)

    @property
    def pole_labels(self) -> tuple[str, ...]:
        # the tables list the basis vectors first, in basis order
        return self.labels[:self.dim]

    @cached_property
    def kets(self) -> np.ndarray:
        """The projector kets as the rows of one read-only (k, dim) array."""
        kets = np.array([psi for _, psi in self.projectors])
        kets.flags.writeable = False
        return kets

    @cached_property
    def design(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only traceless orthonormal Hermitian basis (generalized
        Pauli/Gell-Mann) as an (m, dim, dim) stack, and the pseudo-inverse
        of the Born rows <psi_i|op_m|psi_i> over it.

        Raises InsufficientData when the rows do not determine the state
        (rank below m = dim^2 - 1).
        """
        dim = self.dim
        basis = []
        for k, m in itertools.combinations(range(dim), 2):
            # symmetric, then antisymmetric off-diagonal pair
            for upper, lower in ((1.0, 1.0), (-1j, 1j)):
                op = np.zeros((dim, dim), dtype=np.complex128)
                op[k, m], op[m, k] = upper / math.sqrt(2.0), lower / math.sqrt(2.0)
                basis.append(op)
        for k in range(1, dim):
            diag = np.r_[np.ones(k), -k, np.zeros(dim - k - 1)] / math.sqrt(k * (k + 1))
            basis.append(np.diag(diag.astype(np.complex128)))
        basis = np.array(basis)
        rows = _born(self.kets, basis)
        if np.linalg.matrix_rank(rows) != dim * dim - 1:
            raise InsufficientData("projector set does not determine the state")
        inverse = np.linalg.pinv(rows)
        basis.flags.writeable = inverse.flags.writeable = False
        return basis, inverse


def _born(kets: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Re <psi_k| op |psi_k> for each row of ``kets`` (k, d) and each
    operator of ``ops`` (d, d) or (m, d, d): shape (k,) or (k, m)."""
    return np.einsum("ki,...ij,kj->k...", kets.conj(), ops, kets).real


PROJECTION_SETS = {2: ProjectionSet(2, QUBIT_PROJECTORS), 3: ProjectionSet(3, QUTRIT_PROJECTORS)}


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of a dimension
    in ``PROJECTION_SETS``."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in PROJECTION_SETS:
            raise DimMismatch(f"density matrix must be d x d, d in {tuple(PROJECTION_SETS)}, "
                              f"got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > HERMITICITY_TOL:
            raise ValueError("trace must equal 1 within tolerance")
        if np.linalg.eigvalsh(m).min() < -PSD_TOL:
            raise NotPSD("matrix has a negative eigenvalue beyond tolerance")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def probabilities(rho: DensityMatrix, pset: ProjectionSet) -> list[float]:
    """Born probabilities <psi_i| rho |psi_i> for every projector."""
    if rho.dim != pset.dim:
        raise DimMismatch("state and projection set dimensions differ")
    return np.clip(_born(pset.kets, rho.matrix), 0.0, 1.0).tolist()


def _project_to_physical(m: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize the trace to 1."""
    m = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total == 0:
        raise InsufficientData("reconstruction collapsed to the zero matrix")
    vals /= total
    return (vecs * vals) @ vecs.conj().T


def _least_squares(records, pset: ProjectionSet) -> tuple[np.ndarray, np.ndarray]:
    """Pole-sum probabilities and the raw Hermitian unit-trace estimate,
    with the checks :func:`reconstruct` documents."""
    by_label = {r.basis_id: r for r in records}
    missing = [lab for lab in pset.labels if lab not in by_label]
    if missing:
        raise InsufficientData(f"missing projector records: {missing}")
    reference = sum(by_label[lab].counts for lab in pset.pole_labels)
    if reference <= 0:
        raise NoCounts("pole-basis reference counts are zero")
    probs = np.array([by_label[lab].counts / reference for lab in pset.labels])

    dim = pset.dim
    basis, inverse = pset.design
    raw = np.eye(dim) / dim + np.einsum("m,mij->ij", inverse @ (probs - 1.0 / dim), basis)
    return probs, raw


def reconstruct(records, pset: ProjectionSet, max_likelihood: bool = False) -> DensityMatrix:
    """Estimate the density matrix from one count record per projector.

    Counts become probabilities by division by the summed counts of the
    pole subset; linear inversion applies the projector set's cached
    pseudo-inverse to them.  Raises InsufficientData when a record is
    missing or the projector set does not pin the state (rank check),
    NoCounts when the reference flux is zero.
    """
    probs, raw = _least_squares(records, pset)
    physical = _project_to_physical(raw)
    if max_likelihood:
        physical = _ml_refine(physical, pset, probs)
    return DensityMatrix(physical)


def _ml_refine(rho: np.ndarray, pset: ProjectionSet, freqs: np.ndarray,
               tol: float = 1e-10, max_iter: int = 10 ** 4) -> np.ndarray:
    """Fixed-point R rho R iteration maximizing sum f_i log p_i."""
    f = np.clip(freqs, 0.0, None)
    f = f / f.sum()
    last_ll = -np.inf
    for _ in range(max_iter):
        p = np.maximum(_born(pset.kets, rho), 1e-12)
        ll = float(np.sum(f * np.log(p)))
        if abs(ll - last_ll) < tol:
            break
        last_ll = ll
        r_op = np.einsum("k,ki,kj->ij", f / p, pset.kets, pset.kets.conj())
        rho = r_op @ rho @ r_op
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / np.real(np.trace(rho))
    return _project_to_physical(rho)


def fidelity(rho: DensityMatrix, psi: np.ndarray) -> float:
    """Square-root fidelity sqrt(<psi|rho|psi>) with the pure reference ``psi``,
    a unit ket.

    This is Uhlmann's tr sqrt(sqrt(rho) |psi><psi| sqrt(rho)) for a pure
    reference; its square is the transition probability.
    """
    if np.shape(psi) != (rho.dim,):
        raise DimMismatch("state and reference ket dimensions differ")
    return min(math.sqrt(max(_born(np.atleast_2d(psi), rho.matrix)[0], 0.0)), 1.0)


def export_density_csv(rho: DensityMatrix, path) -> None:
    """CSV of (row, col, re, im) entries."""
    write_csv(path, ["row", "col", "re", "im"],
              ([i, j, v.real, v.imag] for (i, j), v in np.ndenumerate(rho.matrix)))


def _signed(x: float) -> str:
    """``x`` as +0.000000, with no sign on a value that prints as zero.

    Rounding noise of either sign (rho's diagonal keeps imaginary parts
    near 1e-17) then prints the same.
    """
    text = f"{x:+.6f}"
    return "+" + text[1:] if float(text) == 0.0 else text


def tomography_report(pset: ProjectionSet, records, probs, rho: DensityMatrix,
                      fid: float) -> str:
    """Human-readable reconstruction summary."""
    lines = ["basis    counts        p"]
    by_label = {r.basis_id: r for r in records}
    for label, p in zip(pset.labels, probs):
        lines.append(f"{label:<8} {by_label[label].counts:<13g} {p:.6f}")
    lines.append("rho =")
    for i in range(rho.dim):
        lines.append("  " + "  ".join(f"{_signed(z.real)}{_signed(z.imag)}j"
                                      for z in rho.matrix[i]))
    lines.append(f"fidelity = {fid:.6f}")
    return "\n".join(lines)
