"""Sparse direct solver and 1-norm condition estimation.

A thin layer over SuperLU: factorization (retried with partial pivoting
when the first factor fails the pivot test), solves with one step of
iterative refinement (the saddle-point systems reach condition numbers
around 1/h^5, which erodes ~9 digits; refinement restores them for the
error studies), and a Hager-style estimator for
cond_1 = ||A||_1 ||A^-1||_1 that never forms the inverse.

A matrix already in its elimination order (the scheme and Riesz solves
pass theirs in the nested-dissection order of the dof lattice) is
factored as it stands, with static diagonal pivots.  Any other matrix,
and the retry of a failed static-pivot factor, gets partial pivoting
with COLAMD's column order, on the matrix as it was passed.  The solver
knows no permutation of its own: every solve works in the coordinates
of the matrix that was passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PIVOT_RTOL = 1e-14


class SingularMatrixError(RuntimeError):
    """Factorization met a pivot below PIVOT_RTOL * max|A|."""


@dataclass
class LuFactor:
    """LU factorization of a square sparse matrix plus the matrix itself."""

    matrix: sp.csc_matrix
    lu: spla.SuperLU

    @property
    def shape(self):
        return self.matrix.shape

    def solve(self, b, trans: str = "N") -> np.ndarray:
        """x with A x = b, or A^T x = b for trans = "T"; b may hold
        several right-hand sides as columns."""
        return self.lu.solve(b, trans=trans)


def lu_factor(A, pivot_rtol: float = PIVOT_RTOL, ordered: bool = False) -> LuFactor:
    """Factor a square sparse matrix.

    ``ordered`` says that A is already in its elimination order.  A is
    then factored as it stands, with static diagonal pivots, and if that
    factor fails, A is factored again with partial pivoting in COLAMD's
    column order.  Without ``ordered``, only the latter runs.  A factor
    fails when it is exactly singular or its smallest pivot is below
    pivot_rtol times the largest matrix entry; SingularMatrixError is
    raised if the last attempt fails.  Callers that deliberately probe
    near-singular regimes (the stabilization sweeps) pass a smaller
    pivot_rtol.
    """
    A = sp.csc_matrix(A)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    amax = np.abs(A.data).max() if A.nnz else 0.0
    # The retry lets COLAMD choose the columns afresh: its row interchanges
    # reach across the given order's separators (a lattice line separates
    # the graph of A, not that of A^T A, whose Cholesky fill bounds that of
    # any row pivoting and which COLAMD orders from the pattern alone).  On
    # the Q2 sigma tails COLAMD filled 14% (n = 30) and 16-22% (n = 50)
    # less on the matrix in its nested-dissection order than in the
    # unknowns' own order.
    attempts = (("NATURAL", 0.0),) if ordered else ()
    # Only the message survives a failed attempt: a kept exception would tie
    # its traceback, and with it the failed factor, into a reference cycle.
    for permc_spec, thresh in attempts + (("COLAMD", 1.0),):
        try:
            lu = spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=thresh)
        except RuntimeError as exc:       # "Factor is exactly singular"
            message = str(exc)
            continue
        # lu.U builds CSC copies of both L and U, cached for the factor's
        # lifetime (0.03-0.07 s per attempt for the 3.05M entries of U on
        # an n = 50 Q2 system; reading lu.L afterwards is free).  scipy's
        # public API has no other route to diag(U), so the pivot test keeps
        # it.  splu's relax/panel_size gave no speed-up there, and
        # non-default values crash scipy 1.17.1 at interpreter exit.
        pivot = np.abs(lu.U.diagonal()).min()
        if amax > 0.0 and pivot >= pivot_rtol * amax:
            return LuFactor(A, lu)
        message = f"pivot {pivot:.3e} below threshold {pivot_rtol * amax:.3e}"
        lu = None
    raise SingularMatrixError(message)


def solve(factor: LuFactor, b, x=None) -> np.ndarray:
    """Solve A x = b with one iterative-refinement pass; ``x``, when given,
    is the unrefined solution, so only the refinement pass is left."""
    b = np.asarray(b, dtype=float)
    if x is None:
        x = factor.solve(b)
    r = b - factor.matrix @ x
    return x + factor.solve(r)


def _hager_starts(n: int) -> np.ndarray:
    """The estimator's two start vectors as the columns of an (n, 2)
    array: the uniform vector, and an alternating-sign vector with
    weights growing from 1 to 2."""
    starts = np.empty((n, 2))
    starts[:, 0] = 1.0 / n
    starts[::2, 1] = 1.0
    starts[1::2, 1] = -1.0
    if n > 1:
        starts[:, 1] *= 1.0 + np.arange(n) / (n - 1)
    return starts


def _hager_inverse_norm(factor: LuFactor, start_solves, max_iter: int = 5) -> float:
    """Lower-bound estimate of ||A^-1||_1 by gradient ascent on the 1-ball.

    Classic two-start scheme: the uniform vector drives the iteration, an
    alternating-sign vector guards against adversarial cancellation.  Each
    evaluated point gives a true lower bound, so the result never exceeds
    the exact norm (up to roundoff in the solves).
    """
    n = factor.shape[0]
    starts = _hager_starts(n)
    if start_solves is None:
        start_solves = np.column_stack([factor.solve(s) for s in starts.T])
    x, y = starts[:, 0], start_solves[:, 0]
    est = 0.0
    for it in range(max_iter):
        if it:
            y = factor.solve(x)
        est = float(np.abs(y).sum())
        xi = np.where(y >= 0, 1.0, -1.0)
        z = factor.solve(xi, trans="T")
        j = int(np.argmax(np.abs(z)))
        # numpy's pairwise sum: a BLAS dot (z @ x) splits it by thread count
        if np.abs(z[j]) <= np.sum(z * x):
            break
        if x[j] == 1.0 and np.count_nonzero(x) == 1:
            break
        x = np.zeros(n)
        x[j] = 1.0
    est2 = float(np.abs(start_solves[:, 1]).sum() / np.abs(starts[:, 1]).sum())
    return max(est, est2)


def cond1_estimate(factor: LuFactor, start_solves=None) -> float:
    """Estimate cond_1(A) of the factored matrix: exact ||A||_1, the
    largest column sum, times the estimated ||A^-1||_1.  ``start_solves``,
    when given, is A^-1 applied to the estimator's start vectors."""
    A = factor.matrix
    norm_a = float(np.max(np.abs(A).sum(axis=0))) if A.nnz else 0.0
    return norm_a * _hager_inverse_norm(factor, start_solves)


def solve_with_cond1(factor: LuFactor, b) -> tuple[np.ndarray, float]:
    """``solve(factor, b)`` and ``cond1_estimate(factor)``, with b and the
    estimator's two start vectors, which do not depend on its iteration,
    solved together in one three-column solve."""
    b = np.asarray(b, dtype=float)
    first = factor.solve(np.column_stack([b, _hager_starts(len(b))]))
    return solve(factor, b, first[:, 0]), cond1_estimate(factor, first[:, 1:])
