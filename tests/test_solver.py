import gc

import numpy as np
import pytest
import scipy.sparse as sp

from anisofem.solver import (SingularMatrixError, cond1_estimate,
                             finalize_csr, lu_factor, solve)


def test_identity_solve():
    A = finalize_csr(sp.eye(5, format="csr"))
    F = lu_factor(A)
    b = np.arange(5.0)
    assert np.array_equal(solve(F, b), b)


def test_permutation_solve():
    A = finalize_csr(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    F = lu_factor(A)
    assert np.allclose(solve(F, np.array([1.0, 2.0])), [2.0, 1.0])


def _random_dd(rng, n):
    A = rng.standard_normal((n, n))
    A[np.abs(A) < 1.0] = 0.0
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return finalize_csr(sp.csr_matrix(A))


def test_residual_contract_random_dd():
    rng = np.random.default_rng(0)
    A = _random_dd(rng, 200)
    F = lu_factor(A)
    norm1 = float(np.max(np.abs(A).sum(axis=0)))
    for _ in range(10):
        b = rng.standard_normal(200)
        x = solve(F, b)
        assert np.abs(A @ x - b).max() <= 1e-8 * (norm1 * np.abs(x).max()
                                                  + np.abs(b).max())


def test_manufactured_solution_recovered():
    rng = np.random.default_rng(2)
    A = _random_dd(rng, 120)
    x_true = rng.standard_normal(120)
    x = solve(lu_factor(A), A @ x_true)
    assert np.abs(x - x_true).max() <= 1e-10 * np.abs(x_true).max()


def test_determinism():
    rng = np.random.default_rng(3)
    A = _random_dd(rng, 80)
    b = rng.standard_normal(80)
    x1 = solve(lu_factor(A), b)
    x2 = solve(lu_factor(A), b)
    assert np.array_equal(x1, x2)


def test_exactly_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        lu_factor(finalize_csr(A))


def test_pivot_threshold_raises():
    A = finalize_csr(sp.csr_matrix(np.diag([1.0, 1e-20])))
    with pytest.raises(SingularMatrixError):
        lu_factor(A)
    # a relaxed threshold lets the same matrix through
    F = lu_factor(A, pivot_rtol=0.0)
    assert np.allclose(solve(F, np.array([1.0, 1e-20])), [1.0, 1.0])


@pytest.mark.parametrize("dense", [[[1.0, 2.0], [2.0, 4.0]],      # exactly singular
                                   [[1.0, 0.0], [0.0, 1e-20]]])   # fails the pivot test
def test_singular_verdict_leaves_no_cyclic_garbage(dense):
    # a failed factor pinned by a reference cycle would stay alive until the
    # cyclic collector runs, which on large systems multiplies peak memory
    A = finalize_csr(sp.csr_matrix(np.array(dense)))
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(SingularMatrixError):
            lu_factor(A)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nonsquare_rejected():
    A = sp.csr_matrix(np.ones((3, 4)))
    with pytest.raises(ValueError):
        lu_factor(A)


def test_cond1_identity():
    A = finalize_csr(sp.eye(17, format="csr"))
    assert cond1_estimate(A, lu_factor(A)) == 1.0


def test_cond1_diagonal():
    A = finalize_csr(sp.csr_matrix(np.diag([1.0, 1e-6])))
    est = cond1_estimate(A, lu_factor(A))
    assert est == pytest.approx(1e6, rel=1e-12)


def test_cond1_sandwich_against_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        A = rng.standard_normal((50, 50))
        As = finalize_csr(sp.csr_matrix(A))
        est = cond1_estimate(As, lu_factor(As))
        exact = float(np.max(np.abs(A).sum(axis=0))
                      * np.max(np.abs(np.linalg.inv(A)).sum(axis=0)))
        assert est <= exact * (1.0 + 1e-12)
        assert est >= 0.1 * exact


def test_finalize_csr_contract():
    A = sp.coo_matrix(([1.0, 2.0, 1e-301, 3.0], ([0, 0, 1, 0], [1, 1, 0, 0])),
                      shape=(2, 2))
    B = finalize_csr(A)
    assert B[0, 1] == 3.0                # duplicates summed
    assert B.nnz == 2                    # tiny entry dropped
    assert B.has_sorted_indices
