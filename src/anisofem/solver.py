"""Sparse direct solver and 1-norm condition estimation.

A thin layer over SuperLU: factorization with threshold pivoting (retried
with partial pivoting when the threshold factor fails the pivot test), solves
with one step of iterative refinement (the saddle-point systems reach
condition numbers around 1/h^5, which erodes ~9 digits; refinement
restores them for the error studies), and a Hager-style estimator for
cond_1 = ||A||_1 ||A^-1||_1 that never forms the inverse.

The threshold factor's column order is either given by the caller, as the
scheme solves give their nested-dissection order of the dof lattice, or
COLAMD's, for general matrices; the partial-pivoting retry always uses
COLAMD's.  Either way every solve works in the matrix's own coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PIVOT_RTOL = 1e-14
# SuperLU keeps the diagonal (hence the fill-reducing column order)
# whenever |a_jj| >= DIAG_PIVOT_THRESH * max_i |a_ij|; 1.0 is partial pivoting.
DIAG_PIVOT_THRESH = 0.01


class SingularMatrixError(RuntimeError):
    """Factorization met a pivot below PIVOT_RTOL * max|A|."""


@dataclass
class LuFactor:
    """LU factorization of a square sparse matrix plus the matrix itself.

    ``lu`` factors ``matrix[order][:, order]`` when ``order`` is set, and
    ``matrix`` itself otherwise.
    """

    matrix: sp.csr_matrix
    lu: spla.SuperLU
    order: np.ndarray | None = None

    @property
    def shape(self):
        return self.matrix.shape

    def solve(self, b, trans: str = "N") -> np.ndarray:
        """x with A x = b, or A^T x = b for trans = "T"."""
        if self.order is None:
            return self.lu.solve(b, trans=trans)
        x = np.empty(len(b))
        x[self.order] = self.lu.solve(b[self.order], trans=trans)
        return x


def finalize_csr(A) -> sp.csr_matrix:
    """Canonical CSR: duplicates summed, indices sorted, tiny entries dropped."""
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    A.data[np.abs(A.data) < 1e-300] = 0.0
    A.eliminate_zeros()
    return A


def lu_factor(A, pivot_rtol: float = PIVOT_RTOL, order=None) -> LuFactor:
    """Factor a square sparse matrix with threshold row pivoting.

    With ``order`` (a permutation of the unknowns) the first attempt
    factors ``A[order][:, order]`` in that column order; without it
    SuperLU orders the columns by COLAMD.  That attempt uses
    DIAG_PIVOT_THRESH, which keeps most of the fill-reducing order on the
    saddle-point systems.  When its factor is exactly singular, or its
    smallest pivot falls below pivot_rtol times the largest matrix entry,
    A is factored once more with partial pivoting, columns ordered by
    COLAMD either way.  SingularMatrixError is raised only if both
    attempts fail.  Callers that deliberately probe near-singular regimes
    (the stabilization sweeps) pass a smaller pivot_rtol.
    """
    A = sp.csr_matrix(A)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    amax = np.abs(A.data).max() if A.nnz else 0.0
    # The retry ignores a given order: its row interchanges reach across
    # the order's separators (a lattice line separates the graph of A, not
    # that of A^T A, whose Cholesky fill bounds that of any row pivoting
    # and which COLAMD orders).  On the Q2 n = 30 sigma tail the retry's
    # fill was 3.4M in the nested-dissection order and 2.5M under COLAMD.
    # Only the message survives a failed attempt: a kept exception would tie
    # its traceback, and with it the failed factor, into a reference cycle.
    for perm, thresh in ((order, DIAG_PIVOT_THRESH), (None, 1.0)):
        if perm is None:
            Ac, permc_spec = A.tocsc(), "COLAMD"
        else:
            Ac, permc_spec = A[perm][:, perm].tocsc(), "NATURAL"
        try:
            lu = spla.splu(Ac, permc_spec=permc_spec, diag_pivot_thresh=thresh)
        except RuntimeError as exc:       # "Factor is exactly singular"
            message = str(exc)
            continue
        finally:
            Ac = None                     # freed before the pivot test and retry
        # lu.U builds CSC copies of both L and U, cached for the factor's
        # lifetime (0.03-0.07 s per attempt for the 3.05M entries of U on
        # an n = 50 Q2 system; reading lu.L afterwards is free).  scipy's
        # public API has no other route to diag(U), so the pivot test keeps
        # it.  splu's relax/panel_size gave no speed-up there, and
        # non-default values crash scipy 1.17.1 at interpreter exit.
        pivot = np.abs(lu.U.diagonal()).min()
        if amax > 0.0 and pivot >= pivot_rtol * amax:
            return LuFactor(A, lu, perm)
        message = f"pivot {pivot:.3e} below threshold {pivot_rtol * amax:.3e}"
        lu = None
    raise SingularMatrixError(message)


def solve(factor: LuFactor, b) -> np.ndarray:
    """Solve A x = b with one iterative-refinement pass."""
    b = np.asarray(b, dtype=float)
    x = factor.solve(b)
    r = b - factor.matrix @ x
    return x + factor.solve(r)


def _hager_inverse_norm(factor: LuFactor, max_iter: int = 5) -> float:
    """Lower-bound estimate of ||A^-1||_1 by gradient ascent on the 1-ball.

    Classic two-start scheme: the uniform vector drives the iteration, an
    alternating-sign vector guards against adversarial cancellation.  Each
    evaluated point gives a true lower bound, so the result never exceeds
    the exact norm (up to roundoff in the solves).
    """
    n = factor.shape[0]
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(max_iter):
        y = factor.solve(x)
        est = float(np.abs(y).sum())
        xi = np.where(y >= 0, 1.0, -1.0)
        z = factor.solve(xi, trans="T")
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= z @ x:
            break
        if x[j] == 1.0 and np.count_nonzero(x) == 1:
            break
        x = np.zeros(n)
        x[j] = 1.0
    extra = np.empty(n)
    extra[::2] = 1.0
    extra[1::2] = -1.0
    if n > 1:
        extra *= 1.0 + np.arange(n) / (n - 1)
    est2 = float(np.abs(factor.solve(extra)).sum() / np.abs(extra).sum())
    return max(est, est2)


def cond1_estimate(factor: LuFactor) -> float:
    """Estimate cond_1(A) of the factored matrix: exact ||A||_1 times the
    estimated ||A^-1||_1."""
    A = factor.matrix
    norm_a = float(np.max(np.abs(A).sum(axis=0))) if A.nnz else 0.0
    return norm_a * _hager_inverse_norm(factor)
