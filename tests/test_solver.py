import gc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisofem import schemes
from anisofem.fem import nested_dissection
from anisofem.fields import FieldSpec
from anisofem.schemes import ProblemSpec, SchemeOperators, build_system
from anisofem.solver import (SingularMatrixError, cond1_estimate, lu_factor,
                             solve, solve_with_cond1)


def test_identity_solve():
    A = sp.eye(5, format="csr")
    F = lu_factor(A)
    b = np.arange(5.0)
    assert np.array_equal(solve(F, b), b)


def test_permutation_solve():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    F = lu_factor(A)
    assert np.allclose(solve(F, np.array([1.0, 2.0])), [2.0, 1.0])


def _random_dd(rng, n):
    A = rng.standard_normal((n, n))
    A[np.abs(A) < 1.0] = 0.0
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return sp.csr_matrix(A)


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
        lu_factor(A)


def test_pivot_threshold_raises():
    A = sp.csr_matrix(np.diag([1.0, 1e-20]))
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
    A = sp.csr_matrix(np.array(dense))
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
    A = sp.eye(17, format="csr")
    assert cond1_estimate(lu_factor(A)) == 1.0


def test_cond1_diagonal():
    A = sp.csr_matrix(np.diag([1.0, 1e-6]))
    est = cond1_estimate(lu_factor(A))
    assert est == pytest.approx(1e6, rel=1e-12)


def test_solve_with_cond1_matches_separate_calls():
    # the batched start solves feed the same estimate and refined solution
    rng = np.random.default_rng(13)
    for _ in range(20):
        A = sp.csr_matrix(rng.standard_normal((50, 50)))
        F = lu_factor(A)
        b = rng.standard_normal(50)
        x, cond1 = solve_with_cond1(F, b)
        assert np.abs(x - solve(F, b)).max() <= 1e-12 * np.abs(x).max()
        assert cond1 == pytest.approx(cond1_estimate(F), rel=1e-8)


def test_explicit_order_reaches_the_retry(monkeypatch):
    # the static-pivot factor keeps the 0.02 pivot, which fails the pivot
    # test; partial pivoting takes the 1 instead and passes.  Both attempts
    # factor the matrix as it was passed, not a permuted copy of it.
    A = sp.csr_matrix(np.array([[0.02, 1.0], [1.0, 1.0]]))
    calls, original = [], spla.splu

    def counted(M, **kwargs):
        calls.append((M, kwargs))
        return original(M, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    F = lu_factor(A, pivot_rtol=0.05, ordered=True)
    assert [(c["permc_spec"], c["diag_pivot_thresh"]) for _, c in calls] == [
        ("NATURAL", 0.0), ("COLAMD", 1.0)]
    assert all(M is F.matrix for M, _ in calls)
    assert abs(F.matrix - A).max() == 0.0
    b = np.array([1.0, 2.0])
    assert np.allclose(A @ solve(F, b), b)
    assert np.allclose(A.T @ F.solve(b, trans="T"), b)


def _stabilized(n=20):
    field = FieldSpec("variable_alpha", 0.0)
    return ProblemSpec("stabilized", 1e-8, field, "smooth", sigma=1e-6,
                       family="q2", n=n)


def test_order_is_solved_in_original_coordinates():
    # a tiny leading pivot sends the ordered factor to the retry, which
    # factors A as it was passed: its solves are A's own, transposed too
    rng = np.random.default_rng(5)
    A = _random_dd(rng, 60).tolil()
    A[0, 0] = 1e-12
    A = sp.csr_matrix(A)
    F = lu_factor(A, pivot_rtol=1e-10, ordered=True)
    assert not np.array_equal(F.lu.perm_c, np.arange(60))    # the retry
    b = rng.standard_normal(60)
    x = solve(F, b)
    assert np.abs(A @ x - b).max() <= 1e-12 * np.abs(b).max()
    assert np.allclose(F.solve(b, trans="T"), np.linalg.solve(A.T.toarray(), b))


def test_nested_dissection_matches_colamd_solution():
    system = build_system(_stabilized())
    inv = np.argsort(system.order)            # the unknowns' own order
    A = system.matrix[inv][:, inv]
    nd = lu_factor(system.matrix, pivot_rtol=schemes.SCHEME_PIVOT_RTOL,
                   ordered=True)
    colamd = lu_factor(A, pivot_rtol=schemes.SCHEME_PIVOT_RTOL)
    x_nd = solve(nd, system.rhs)[inv]
    x_colamd = solve(colamd, system.rhs[inv])
    assert np.abs(x_nd - x_colamd).max() <= 1e-6 * np.abs(x_colamd).max()
    assert cond1_estimate(nd) == pytest.approx(cond1_estimate(colamd), rel=1e-4)


def test_nested_dissection_cuts_fill():
    # guards against a silent return to COLAMD for the scheme solves
    system = build_system(_stabilized())
    inv = np.argsort(system.order)
    nd = lu_factor(system.matrix, ordered=True).lu
    colamd = lu_factor(system.matrix[inv][:, inv]).lu
    assert nd.L.nnz + nd.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_static_pivots_cut_fill():
    # the scheme factor keeps every nonzero diagonal in the nested-dissection
    # order: on this system its fill is 150,652 against 170,224 with
    # threshold pivoting at 0.01 in the same order (ratio 0.8850), and
    # 273,059 with partial pivoting in COLAMD's column order on the
    # unknowns' own order (0.5517)
    eps = 1e-10
    spec = ProblemSpec("stabilized", eps, FieldSpec("variable_alpha", 0.0),
                       "low_reg", sigma=(1.0 / 32) ** 2, family="q1", n=32)
    system = build_system(spec)
    factor = lu_factor(system.matrix, pivot_rtol=schemes.SCHEME_PIVOT_RTOL,
                       ordered=True)
    # the first attempt, not the retry
    assert np.array_equal(factor.lu.perm_c, np.arange(system.matrix.shape[0]))
    threshold = spla.splu(system.matrix, permc_spec="NATURAL",
                          diag_pivot_thresh=0.01)
    inv = np.argsort(system.order)
    colamd = lu_factor(system.matrix[inv][:, inv]).lu
    fill = factor.lu.L.nnz + factor.lu.U.nnz
    assert fill <= 0.8851 * (threshold.L.nnz + threshold.U.nnz)
    assert fill <= 0.5518 * (colamd.L.nnz + colamd.U.nnz)


def test_scheme_factor_fill_on_a_benchmark_lattice():
    # the eps_q2_n50 inflow factor in the order dissected down to
    # uncuttable leaves, as measured: 2,352,316 stored entries of L + U
    # (2,845,628 when regions of at most 8 x 8 points were leaves)
    spec = ProblemSpec("inflow", 1e-10, FieldSpec("variable_alpha", 2.0),
                       "smooth", family="q2", n=50)
    system = build_system(spec)
    factor = lu_factor(system.matrix, pivot_rtol=schemes.SCHEME_PIVOT_RTOL,
                       ordered=True)
    assert np.array_equal(factor.lu.perm_c, np.arange(system.matrix.shape[0]))
    assert factor.lu.nnz <= 2_352_316


def test_sigma_tail_retry_fill(monkeypatch):
    # a sigma_q2_n30 tail point that fails both attempts: the retry factors
    # the matrix in its nested-dissection order as it was passed, with
    # COLAMD's columns, at 2,175,880 stored entries of L + U as measured
    # (2,535,578 on the unknowns' own order)
    calls, original = [], spla.splu

    def recorded(M, **kwargs):
        calls.append((M, kwargs["permc_spec"], original(M, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(spla, "splu", recorded)
    spec = ProblemSpec("stabilized", 1e-10, FieldSpec("variable_alpha", 0.0),
                       "smooth", sigma=1e-13, family="q2", n=30)
    system = build_system(spec)
    with pytest.raises(SingularMatrixError):
        lu_factor(system.matrix, pivot_rtol=schemes.SCHEME_PIVOT_RTOL, ordered=True)
    (first, _, _), (matrix, permc_spec, retry) = calls
    assert permc_spec == "COLAMD" and matrix is first
    assert abs(matrix - system.matrix).max() == 0.0
    assert retry.nnz <= 2_175_880


def test_batched_cond1_matches_single_solves(monkeypatch):
    factors = []

    def recorded(*args, **kwargs):
        factors.append(lu_factor(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(schemes, "lu_factor", recorded)
    result = schemes.solve_scheme(build_system(_stabilized()))
    assert result.cond1 == pytest.approx(cond1_estimate(factors[0]), rel=1e-8)


def test_scheme_solves_factor_in_the_scheme_order(monkeypatch):
    calls = []

    def recorded(A, pivot_rtol, ordered=False):
        calls.append((A, ordered))
        return lu_factor(A, pivot_rtol, ordered)

    monkeypatch.setattr(schemes, "lu_factor", recorded)
    system = build_system(_stabilized(n=4))
    schemes.solve_scheme(system)
    (matrix, ordered), = calls
    assert matrix is system.matrix and ordered is True


@pytest.mark.parametrize("scheme", ["standard", "inflow", "stabilized"])
def test_scheme_order_puts_u_before_q(scheme):
    spec = replace(_stabilized(n=6), scheme=scheme,
                   sigma=1e-6 if scheme == "stabilized" else 0.0)
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    us, qs = ops.u_space, ops.aux_space(scheme)
    order = ops.plan(scheme).order
    q_free = np.empty(0, dtype=int) if qs is None else qs.free
    points = np.concatenate([us.free, q_free])
    is_q = np.arange(len(points)) >= len(us.free)
    assert np.array_equal(np.sort(order), np.arange(len(points)))
    # the unknowns visit the lattice in nested-dissection order ...
    rank = np.empty(us.n_dofs, dtype=int)
    rank[nested_dissection(us)] = np.arange(us.n_dofs)
    assert np.all(np.diff(rank[points[order]]) >= 0)
    # ... and at a point that carries both, u comes first
    same = np.diff(points[order]) == 0
    assert not is_q[order][:-1][same].any()
    assert is_q[order][1:][same].all()
    assert same.sum() == len(q_free)


def test_scheme_order_is_computed_once_per_scheme(monkeypatch):
    calls = []

    def counted(space):
        calls.append(space)
        return nested_dissection(space)

    monkeypatch.setattr(schemes, "nested_dissection", counted)
    spec = _stabilized(n=4)
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    assert calls == []               # not at construction: it is timed work
    first = build_system(spec, ops).order
    assert build_system(spec, ops).order is first
    build_system(replace(spec, scheme="inflow", sigma=0.0), ops)
    assert len(calls) == 2
