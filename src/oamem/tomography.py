"""Density-matrix reconstruction and fidelity for OAM qubits and qutrits.

The projector sets are the five-basis qubit set {L, R, L+R, L+iR, L-R}
and the nine-basis qutrit set {L, G, R, G-L, G+R, G+iL, G-iR, L+iR,
L-R}.  Counts are normalized by the pole-basis subset (L+R for qubits,
L+G+R for qutrits), which resolves the identity and provides the flux
reference.  Reconstruction is linear least squares over Hermitian
unit-trace matrices followed by eigenvalue clipping onto the physical
set, with an optional fixed-point maximum-likelihood refinement.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimMismatch, InsufficientData, NoCounts, NotPSD
from .measurement import CountRecord

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

    ``qubit()`` and ``qutrit()`` return one shared instance each, so the
    least-squares design of :func:`reconstruct`, cached per instance, is
    built once per process.
    """

    dim: int
    projectors: tuple

    @classmethod
    def qubit(cls) -> "ProjectionSet":
        return _QUBIT_SET

    @classmethod
    def qutrit(cls) -> "ProjectionSet":
        return _QUTRIT_SET

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.projectors)

    @property
    def pole_labels(self) -> tuple[str, ...]:
        return ("L", "R") if self.dim == 2 else ("L", "G", "R")

    @cached_property
    def design(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, bool]:
        """Read-only traceless orthonormal Hermitian basis (generalized
        Pauli/Gell-Mann), the rows tr(op |psi_i><psi_i|) over it, and whether
        they determine the state (full rank)."""
        dim = self.dim
        basis = []
        for k in range(dim):
            for m in range(k + 1, dim):
                sym = np.zeros((dim, dim), dtype=np.complex128)
                sym[k, m] = sym[m, k] = 1.0 / math.sqrt(2.0)
                basis.append(sym)
                asym = np.zeros((dim, dim), dtype=np.complex128)
                asym[k, m] = -1j / math.sqrt(2.0)
                asym[m, k] = 1j / math.sqrt(2.0)
                basis.append(asym)
        for k in range(1, dim):
            diag = np.zeros((dim, dim), dtype=np.complex128)
            diag[:k, :k] = np.eye(k)
            diag[k, k] = -k
            diag /= math.sqrt(k * (k + 1))
            basis.append(diag)
        basis = tuple(basis)
        rows = []
        for _, psi in self.projectors:
            proj = np.outer(psi, psi.conj())
            rows.append([float(np.real(np.trace(op @ proj))) for op in basis])
        rows = np.array(rows)
        for a in basis + (rows,):
            a.flags.writeable = False
        return basis, rows, bool(np.linalg.matrix_rank(rows) == dim * dim - 1)


_QUBIT_SET = ProjectionSet(2, QUBIT_PROJECTORS)
_QUTRIT_SET = ProjectionSet(3, QUTRIT_PROJECTORS)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of dim 2 or 3."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
            raise DimMismatch(f"density matrix must be 2x2 or 3x3, got {m.shape}")
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

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        v = _ket(vector)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=np.complex128) / dim)


def probabilities(rho: DensityMatrix, pset: ProjectionSet) -> list[float]:
    """Born probabilities <psi_i| rho |psi_i> for every projector."""
    if rho.dim != pset.dim:
        raise DimMismatch("state and projection set dimensions differ")
    out = []
    for _, psi in pset.projectors:
        p = float(np.real(psi.conj() @ rho.matrix @ psi))
        out.append(min(max(p, 0.0), 1.0))
    return out


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
    basis, design, determined = pset.design
    if not determined:
        raise InsufficientData("projector set does not determine the state")
    coeffs, *_ = np.linalg.lstsq(design, probs - 1.0 / dim, rcond=None)
    raw = np.eye(dim, dtype=np.complex128) / dim
    for c, op in zip(coeffs, basis):
        raw = raw + c * op
    return probs, raw


def reconstruct(records, pset: ProjectionSet, max_likelihood: bool = False) -> DensityMatrix:
    """Estimate the density matrix from one count record per projector.

    Counts become probabilities by division by the summed counts of the
    pole subset.  Raises InsufficientData when a record is missing or
    the projector set does not pin the state (rank check), NoCounts when
    the reference flux is zero.
    """
    probs, raw = _least_squares(records, pset)
    physical = _project_to_physical(raw)
    if max_likelihood:
        physical = _ml_refine(physical, pset, probs)
    return DensityMatrix(physical)


def _ml_refine(rho: np.ndarray, pset: ProjectionSet, freqs: np.ndarray,
               tol: float = 1e-10, max_iter: int = 10 ** 4) -> np.ndarray:
    """Fixed-point R rho R iteration maximizing sum f_i log p_i."""
    projectors = [np.outer(psi, psi.conj()) for _, psi in pset.projectors]
    f = np.clip(freqs, 0.0, None)
    f = f / f.sum()
    last_ll = -np.inf
    for _ in range(max_iter):
        p = np.array([max(np.real(np.trace(proj @ rho)), 1e-12) for proj in projectors])
        ll = float(np.sum(f * np.log(p)))
        if abs(ll - last_ll) < tol:
            break
        last_ll = ll
        r_op = sum((fi / pi) * proj for fi, pi, proj in zip(f, p, projectors))
        rho = r_op @ rho @ r_op
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / np.real(np.trace(rho))
    return _project_to_physical(rho)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: DensityMatrix, rho0: DensityMatrix) -> float:
    """Square-root (amplitude) fidelity tr sqrt(sqrt(rho) rho0 sqrt(rho)).

    For a pure reference this reduces to sqrt(<psi|rho|psi>); its square
    is the transition probability.
    """
    if rho.dim != rho0.dim:
        raise DimMismatch("density matrices have different dimensions")
    root = _psd_sqrt(rho.matrix)
    inner = root @ rho0.matrix @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    # eigenvalues below the eigensolver's absolute resolution are noise;
    # the square root would otherwise inflate them to ~1e-8
    floor = max(vals.max(), 0.0) * 1e-13
    f = float(np.sum(np.sqrt(vals[vals > floor])))
    return min(max(f, 0.0), 1.0)


def resample_records(records, seed: int) -> list[CountRecord]:
    """Poisson bootstrap of integer count records (error-bar helper)."""
    rng = np.random.default_rng(seed)
    out = []
    for r in records:
        out.append(CountRecord(basis_id=r.basis_id, counts=int(rng.poisson(r.counts)),
                               background=r.background, acquisition=r.acquisition,
                               beta=r.beta))
    return out


def export_density_csv(rho: DensityMatrix, path) -> None:
    """CSV of (row, col, re, im) entries."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "col", "re", "im"])
        for i in range(rho.dim):
            for j in range(rho.dim):
                v = rho.matrix[i, j]
                w.writerow([i, j, repr(float(v.real)), repr(float(v.imag))])


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
