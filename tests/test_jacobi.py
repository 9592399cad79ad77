"""``oamem._jacobi`` against LAPACK: ``np.linalg.eigh`` and ``pinv`` are the oracles.

Tolerances are set from the float64 epsilon and the matrix size: the
eigenvalues within 8 d eps ||A||, the eigenvectors unitary and
reproducing A to the same bound.
"""

import warnings

import numpy as np
import pytest

from oamem._jacobi import EPS, eigh, pseudo_inverse
from oamem.tomography import PROJECTION_SETS, QUBIT_PROJECTORS, _born


def random_hermitian(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return z + z.conj().T


def assert_decomposes(a, vals, vecs):
    """vals ascending and within 8 d eps ||A|| of LAPACK's, vecs unitary,
    and vecs diag(vals) vecs^H = A to the same bound."""
    d = len(a)
    want = np.linalg.eigh(a)[0]
    tol = 8 * d * EPS * max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert vals.shape == (d,) and vecs.shape == (d, d)
    assert np.all(np.diff(vals) >= 0)
    assert np.max(np.abs(vals - want)) <= tol
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(d))) <= 8 * d * EPS
    assert np.max(np.abs((vecs * vals) @ vecs.conj().T - a)) <= tol


@pytest.mark.parametrize("d", [2, 3])
def test_random_hermitian_matches_lapack(rng, d):
    checked = 0
    for _ in range(200):
        a = random_hermitian(rng, d)
        vals, vecs = eigh(a)
        assert vecs.dtype == np.complex128
        assert_decomposes(a, vals, vecs)
        # an eigenvector whose eigenvalue lies apart from the others is
        # LAPACK's up to a phase
        gaps = np.array([np.delete(np.abs(vals - v), i).min() for i, v in enumerate(vals)])
        apart = gaps > 1e-2 * np.max(np.abs(vals))
        want = np.linalg.eigh(a)[1]
        overlaps = np.abs(np.sum(vecs.conj() * want, axis=0))
        assert np.all(np.abs(overlaps - 1)[apart] <= 1e-12)
        checked += apart.sum()
    assert checked >= 0.9 * 200 * d


@pytest.mark.parametrize("d", [2, 3])
def test_pure_states_have_degenerate_zeros(rng, d):
    for _ in range(100):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        a = np.outer(psi, psi.conj())
        vals, vecs = eigh(a)
        assert_decomposes(a, vals, vecs)
        assert abs(abs(np.vdot(vecs[:, -1], psi)) - 1) <= 8 * d * EPS


def test_diagonal_input_is_returned_sorted_and_exact():
    vals, vecs = eigh(np.diag([0.5, -2.0, 0.25]).astype(complex))
    assert vals.tolist() == [-2.0, 0.25, 0.5]
    assert np.array_equal(vecs, np.eye(3)[:, [1, 2, 0]])
    assert vecs.dtype == np.complex128


def test_real_gram_matrix_stays_real(rng):
    rows = rng.normal(size=(9, 8))
    a = rows.T @ rows
    vals, vecs = eigh(a)
    assert vals.dtype == vecs.dtype == np.float64
    assert_decomposes(a, vals, vecs)


@pytest.mark.parametrize("a", [[[1.0, 1e-300], [1e-300, 2.0]],
                               [[0.0, 1e-300], [1e-300, 0.0]],
                               [[1.0, 1e-300j], [-1e-300j, 1.0]],
                               [[0.0, 0.0, 1e-300], [0.0, 1.0, 0.0], [1e-300, 0.0, -1.0]]],
                         ids=["split", "zero-diagonal", "degenerate-complex", "qutrit"])
def test_tiny_off_diagonal_raises_no_warning(a):
    a = np.array(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = eigh(a)
    assert_decomposes(a, vals, vecs)


def test_reads_the_lower_triangle_as_lapack_does(rng):
    a = random_hermitian(rng, 3)
    skewed = np.tril(a) + np.triu(rng.normal(size=(3, 3)), 1)
    assert np.array_equal(eigh(skewed)[0], eigh(a)[0])


def test_nan_reaches_the_result():
    vals, _ = eigh(np.array([[np.nan, 1.0], [1.0, 0.5]]))
    assert np.isnan(vals).any()


@pytest.mark.parametrize("pset", [PROJECTION_SETS[2], PROJECTION_SETS[3]],
                         ids=["qubit", "qutrit"])
def test_pseudo_inverse_matches_pinv(pset):
    basis, inverse = pset.design
    rows = _born(pset.kets, basis)
    assert np.max(np.abs(inverse - np.linalg.pinv(rows))) <= 16 * EPS


def test_rank_deficient_rows_give_none(rng):
    # four kets whose Bloch vectors span a plane: rank 2 of 3, with no
    # exactly zero column once the plane is turned by a random unitary
    basis, _ = PROJECTION_SETS[2].design
    plane = [psi for label, psi in QUBIT_PROJECTORS if label != "L+iR"]
    for _ in range(200):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = np.linalg.qr(z)[0]
        rows = _born(np.array([u @ psi for psi in plane]), basis)
        assert np.linalg.matrix_rank(rows) == 2
        assert pseudo_inverse(rows) is None
