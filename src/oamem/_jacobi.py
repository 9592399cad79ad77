"""Eigen-decomposition of small Hermitian matrices by the cyclic Jacobi method.

Tomography and the visibility fit solve d x d (d <= 3) eigenproblems and
3 x 3 or 8 x 8 normal equations.  ``np.linalg`` would answer them through
LAPACK, whose first calls page in about 2.6 MB more than this module,
mostly OpenBLAS code, for matrices of a few entries (see
:mod:`oamem.tomography`).  Cyclic Jacobi is the classical solver at this
size; on positive definite matrices it is at least as accurate as
LAPACK's QR-based drivers (Demmel & Veselić, SIAM J. Matrix Anal. Appl.
13, 1204 (1992)).  Run on Python scalars, it settles a 2 x 2 in one
rotation.
"""

from __future__ import annotations

import math
import sys

import numpy as np

EPS = sys.float_info.epsilon
# cyclic Jacobi converges quadratically: a handful of sweeps settles an 8 x 8
MAX_SWEEPS = 30


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and unit eigenvectors, as columns, of the
    Hermitian matrix ``a``, read from its lower triangle as ``np.linalg.eigh``
    reads it.

    Each rotation zeroes one off-diagonal pair; a sweep rotates every pair
    whose modulus exceeds EPS sqrt(|a_pp a_qq|) (Demmel & Veselić's
    threshold), and the sweeps stop when one rotates none.  A NaN entry
    is never rotated and reaches the result, as in LAPACK; failing to
    settle within MAX_SWEEPS raises ``np.linalg.LinAlgError``.
    """
    n = len(a)
    rows = a.tolist()
    h = [[rows[i][j] if i > j else rows[j][i].conjugate() for j in range(n)]
         for i in range(n)]
    for i in range(n):
        h[i][i] = rows[i][i].real
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq, app, aqq = h[p][q], h[p][p], h[q][q]
                g = abs(apq)
                if not g > EPS * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
                    continue
                rotated = True
                # apq = g e; the rotation [[c, s], [-s e*, c e*]] diagonalizes
                # [[app, apq], [apq*, aqq]] (Golub & Van Loan's sym.schur2 on
                # [[app, g], [g, aqq]])
                e = apq / g
                tau = (0.5 * aqq - 0.5 * app) / g
                t = 1.0 / (abs(tau) + math.hypot(1.0, tau))
                if tau < 0:
                    t = -t
                c = 1.0 / math.hypot(1.0, t)
                s, ec = t * c, e.conjugate()
                se, ce = s * ec, c * ec
                for r in range(n):
                    x, y = v[r][p], v[r][q]
                    v[r][p], v[r][q] = c * x - se * y, s * x + ce * y
                    if r == p or r == q:
                        continue
                    x, y = h[r][p], h[r][q]
                    h[r][p], h[r][q] = x, y = c * x - se * y, s * x + ce * y
                    h[p][r], h[q][r] = x.conjugate(), y.conjugate()
                h[p][p], h[q][q] = app - t * g, aqq + t * g
                h[p][q] = h[q][p] = 0.0
        if not rotated:
            break
    else:
        raise np.linalg.LinAlgError(f"Jacobi eigensolver did not settle in {MAX_SWEEPS} sweeps")
    order = sorted(range(n), key=lambda k: h[k][k])
    dtype = np.result_type(a.dtype, np.float64)
    return (np.array([h[k][k] for k in order]),
            np.array([[row[k] for k in order] for row in v], dtype=dtype))


def pseudo_inverse(rows: np.ndarray) -> np.ndarray | None:
    """The pseudo-inverse (G^-1 rows^T, shape (m, k)) of the real (k, m)
    ``rows`` of full column rank, through the eigen-decomposition of the
    Gram matrix G = rows^T rows; None when the rank is below m.

    G's eigenvalues carry an absolute rounding error of about EPS lambda_max,
    so the rank counts as full when lambda_min > m EPS lambda_max, which is
    ``np.linalg.matrix_rank``'s tolerance applied to G itself.
    """
    m = rows.shape[1]
    vals, vecs = eigh(np.einsum("ki,kj->ij", rows, rows))
    if not vals[0] > m * EPS * vals[-1]:
        return None
    return np.einsum("ij,j,lj,kl->ik", vecs, 1.0 / vals, vecs, rows)
