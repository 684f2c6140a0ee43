import gc
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisofem import schemes

from anisofem.fields import (FieldSpec, LinearFunctional, ManufacturedCase,
                             eval_A, eval_b, rhs_functional)
from anisofem.fem import assemble_rhs, error_norms
from anisofem.geometry import build_quad_mesh
from anisofem.schemes import (ProblemSpec, SchemeOperators, build_system,
                              solve_scheme)
from anisofem.solver import lu_factor, solve
from anisofem.spectral import FourierRhs, spectral_solve
from anisofem.studies import (StudyConfig, StudyRecord, _spec, run_instance,
                              run_study)


def _smooth_spec(scheme, eps, alpha, n, sigma=0.0, family="q2"):
    field = FieldSpec("variable_alpha", alpha)
    return ProblemSpec(scheme, eps, field, "smooth", sigma=sigma, family=family, n=n)


def test_spec_validation():
    field = FieldSpec("variable_alpha", 0.0)
    with pytest.raises(ValueError):
        ProblemSpec("standard", 0.0, field)
    with pytest.raises(ValueError):
        ProblemSpec("inflow", -0.1, field)
    with pytest.raises(ValueError):
        ProblemSpec("nope", 0.5, field)
    ProblemSpec("inflow", 0.0, field)          # eps = 0 allowed for AP schemes
    with pytest.warns(UserWarning):
        ProblemSpec("stabilized", 0.5, field, sigma=0.0)


@pytest.mark.parametrize("name", ["eps", "sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_spec_refuses_nonfinite_parameters(name, value):
    # a NaN eps used to build, and its solve to be reported SINGULAR
    params = {"eps": 0.5, "sigma": 1e-3, name: value}
    with pytest.raises(ValueError, match="finite"):
        ProblemSpec("stabilized", params["eps"], FieldSpec("variable_alpha", 0.0),
                    "smooth", sigma=params["sigma"], n=4)


@pytest.mark.parametrize("scheme", ["inflow", "standard"])
def test_spec_refuses_sigma_off_the_stabilized_scheme(scheme):
    # these schemes once ignored sigma while their record still reported
    # it; a stabilized spec at sigma = 0 only warns (test_spec_validation)
    with pytest.raises(ValueError, match="stabilized scheme only") as caught:
        ProblemSpec(scheme, 0.5, FieldSpec("variable_alpha", 0.0), sigma=1e-3)
    assert "\n" not in str(caught.value)


def test_sigma_zero_warning_names_the_caller():
    with pytest.warns(UserWarning, match="sigma = 0") as caught:
        ProblemSpec("stabilized", 0.5, FieldSpec("variable_alpha", 0.0), sigma=0.0)
    assert caught[0].filename == __file__


_MODE = FourierRhs.from_modes([(1, 1, 1.0)])


@pytest.mark.parametrize("case", [ManufacturedCase("smooth", 2.0, 1e-10),
                                  spectral_solve(_MODE, 1e-10, 1e-6)],
                         ids=["manufactured", "modes"])
def test_spec_refuses_a_bound_case(case):
    # a bound case fixes eps and alpha or sigma that the spec states too
    field = FieldSpec("variable_alpha", 2.0)
    with pytest.raises(TypeError, match="recipe"):
        ProblemSpec("stabilized", 1e-10, field, case, sigma=1e-6)


@pytest.mark.parametrize("field, case, sigma", [
    (FieldSpec("variable_alpha", 2.0), ManufacturedCase("smooth", 0.0, 1e-10), 1e-6),
    (FieldSpec("variable_alpha", 2.0), ManufacturedCase("smooth", 2.0, 0.5), 1e-6),
    (FieldSpec("aligned_e2"), spectral_solve(_MODE, 0.5, 1e-6), 1e-6),
    (FieldSpec("aligned_e2"), spectral_solve(_MODE, 1e-10, 1e-6), 1e-2),
], ids=["manufactured_alpha", "manufactured_eps", "modes_eps", "modes_sigma"])
def test_spec_rejects_a_case_built_for_other_parameters(field, case, sigma):
    # each once ran and was reported OK, with relative L2 errors of 0.27 and
    # more where the matching case gives 1.8e-4 or less; a bound case is now
    # refused whatever it was built for
    with pytest.raises(TypeError, match="recipe"):
        ProblemSpec("stabilized", 1e-10, field, case, sigma=sigma, family="q2", n=16)


@pytest.mark.parametrize("scheme", ["standard", "inflow", "stabilized"])
def test_spec_binds_its_case_to_its_parameters(scheme):
    sigma = 1e-6 if scheme == "stabilized" else 0.0
    curved = ProblemSpec(scheme, 0.5, FieldSpec("variable_alpha", 2.0), "low_reg",
                         sigma=sigma)
    assert curved.solution == ManufacturedCase("low_reg", 2.0, 0.5)
    aligned = ProblemSpec(scheme, 0.5, FieldSpec("aligned_e2"), _MODE, sigma=sigma)
    expected, bound = spectral_solve(_MODE, 0.5, sigma), aligned.solution
    assert bound.rhs is _MODE and (bound.eps, bound.sigma) == (0.5, sigma)
    for name in ("u_coeff", "xi_coeff"):
        assert np.array_equal(getattr(bound, name), getattr(expected, name))
    # a replaced parameter binds again; a user case stands as it is
    assert replace(curved, eps=0.25).solution == ManufacturedCase("low_reg", 2.0, 0.25)
    zero = _ZeroCase()
    assert ProblemSpec(scheme, 0.5, curved.field, zero, sigma=sigma).solution is zero


def test_dof_partition_counts():
    spec = _smooth_spec("inflow", 1e-10, 2.0, 10)
    system = build_system(spec)
    n_dirichlet = 2 * 21                      # two constrained lattice rows
    n_u = 21 * 21 - n_dirichlet
    assert system.n_u == n_u
    assert system.n_q == n_u - 19             # inflow column minus shared corners


def test_block_structure_matches_forms():
    spec = _smooth_spec("stabilized", 0.3, 2.0, 4, sigma=1e-3)
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    system = build_system(spec, operators=ops)
    uf = ops.u_space.free
    inv = np.argsort(system.order)            # the unknowns' own order
    A = system.matrix.toarray()[np.ix_(inv, inv)]
    K = ops.K.toarray()[np.ix_(uf, uf)]
    P = ops.P.toarray()
    M = ops.M.toarray()
    n_u = system.n_u
    assert np.abs(A[:n_u, :n_u] - K).max() <= 1e-14
    assert np.abs(A[:n_u, n_u:] - 0.7 * P[np.ix_(uf, uf)]).max() <= 1e-14
    assert np.abs(A[n_u:, :n_u] - P[np.ix_(uf, uf)]).max() <= 1e-14
    expected_22 = -(0.3 * P + 1e-3 * M)[np.ix_(uf, uf)]
    assert np.abs(A[n_u:, n_u:] - expected_22).max() <= 1e-14


def _block_assembly(spec, ops):
    """Matrix and rhs in the unknowns' own order, assembled block by block
    from submatrices of K, P and M."""
    def sub(A, rows, cols):
        return A[rows][:, cols].tocsr()

    us = ops.u_space
    uf, uc = us.free, us.constrained
    pts = us.coords[uc]
    gu = spec.solution.boundary_values(pts[:, 0], pts[:, 1])
    ell = ops.case_load(spec.solution)
    eps = spec.eps
    if spec.scheme == "standard":
        S = (ops.K + ((1.0 - eps) / eps) * ops.P).tocsr()
        return sub(S, uf, uf), ell[uf] - sub(S, uf, uc) @ gu
    qf = ops.aux_space(spec.scheme).free
    A11 = sub(ops.K, uf, uf)
    A12 = (1.0 - eps) * sub(ops.P, uf, qf)
    A21 = sub(ops.P, qf, uf)
    A22 = -eps * sub(ops.P, qf, qf)
    if spec.scheme == "stabilized":
        A22 = A22 - spec.sigma * sub(ops.M, qf, qf)
    rhs_u = ell[uf] - sub(ops.K, uf, uc) @ gu
    rhs_q = -(sub(ops.P, qf, uc) @ gu)
    return (sp.bmat([[A11, A12], [A21, A22]], format="csr"),
            np.concatenate([rhs_u, rhs_q]))


@pytest.mark.parametrize("field", [FieldSpec("variable_alpha", 2.0),
                                   FieldSpec("aligned_e2")],
                         ids=["curved", "aligned"])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
@pytest.mark.parametrize("scheme", ["standard", "inflow", "stabilized"])
def test_plan_matrix_matches_block_assembly(scheme, family, field):
    ops = SchemeOperators(ProblemSpec(scheme, 0.3, field, family=family,
                                      n=5).build_mesh(), field, family)
    if field.kind == "aligned_e2" and family.startswith("p"):
        # a_par cancels the entries it couples across the diagonals
        # exactly, and keeps them as zeros in the shared pattern
        assert ops.P.nnz == ops.M.nnz
    for profile in ("smooth", "low_reg"):
        spec = ProblemSpec(scheme, 0.3, field, profile, family=family, n=5,
                           sigma=1e-3 if scheme == "stabilized" else 0.0)
        system = build_system(spec, ops)
        matrix, rhs = _block_assembly(spec, ops)
        order = system.order
        expected = matrix[order][:, order]
        assert system.matrix.format == "csc"
        if family.startswith("q"):
            assert system.matrix.nnz == expected.nnz
        else:
            # the sums of the block assembly drop cancelled entries,
            # which the plan keeps as exact zeros
            ours, theirs = system.matrix.tocoo(), expected.tocoo()
            mine, their = [np.ravel_multi_index((m.row, m.col), m.shape)
                           for m in (ours, theirs)]
            assert np.all(np.isin(their, mine))
            assert np.all(ours.data[~np.isin(mine, their)] == 0.0)
        assert abs(system.matrix - expected).max() == 0.0
        assert np.array_equal(system.rhs, rhs[order])


@pytest.mark.parametrize("field", [FieldSpec("variable_alpha", 2.0),
                                   FieldSpec("aligned_e2")],
                         ids=["curved", "aligned"])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
@pytest.mark.parametrize("scheme", ["standard", "inflow", "stabilized"])
def test_plan_matrix_is_canonical_csc(scheme, family, field):
    # splu sorts the indices of a non-canonical CSC in place, which fails
    # on the plan's read-only shared indices
    spec = ProblemSpec(scheme, 0.3, field, "smooth",
                       family=family, n=5,
                       sigma=1e-3 if scheme == "stabilized" else 0.0)
    system = build_system(spec)
    matrix, plan = system.matrix, system.operators.plan(scheme)
    assert matrix.has_canonical_format
    assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
    # one gather index per entry of the plan's pattern
    assert plan.idx.dtype == np.int32
    assert len(plan.idx) == len(plan.indices) == plan.indptr[-1]
    assert not matrix.indices.flags.writeable
    assert not matrix.indptr.flags.writeable
    spla.splu(matrix)


def test_plan_is_built_once_per_scheme(monkeypatch):
    calls = []

    def counted(ops, scheme):
        calls.append(scheme)
        return build_plan(ops, scheme)

    build_plan = schemes._build_plan
    monkeypatch.setattr(schemes, "_build_plan", counted)
    spec = _smooth_spec("stabilized", 1e-6, 2.0, 4, sigma=1e-4)
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    assert calls == []               # not at construction: it is timed work
    first = build_system(spec, ops)
    second = build_system(spec, ops)
    assert calls == ["stabilized"]
    assert second.order is first.order
    assert np.shares_memory(second.matrix.indices, first.matrix.indices)
    # so an in-place edit of one system's pattern raises instead of
    # changing every later system of the scheme
    with pytest.raises(ValueError):
        first.matrix.eliminate_zeros()
    # both systems gathered their data by the one plan's read-only idx
    assert not ops.plan("stabilized").idx.flags.writeable
    assert calls == ["stabilized"]
    build_system(replace(spec, scheme="inflow", sigma=0.0), ops)
    assert calls == ["stabilized", "inflow"]


def _counted_plans(monkeypatch, on_build=lambda: None):
    """Wrap _build_plan: the schemes it builds, and a weak reference to the
    gather index of each plan built, which the plan alone holds (a named
    tuple takes no weak reference)."""
    calls, built = [], []

    def counted(ops, scheme):
        on_build()
        calls.append(scheme)
        plan = build_plan(ops, scheme)
        built.append(weakref.ref(plan.idx))
        return plan

    build_plan = schemes._build_plan
    monkeypatch.setattr(schemes, "_build_plan", counted)
    return calls, built


def test_building_a_plan_releases_the_last_one(monkeypatch):
    alive = []                      # at each build, which earlier plans live
    calls, built = _counted_plans(
        monkeypatch, lambda: alive.append([idx() is not None for idx in built]))
    inflow = _smooth_spec("inflow", 1e-4, 2.0, 6, family="q1")
    stabilized = _smooth_spec("stabilized", 1e-4, 2.0, 6, sigma=1e-3, family="q1")
    ops = SchemeOperators(inflow.build_mesh(), inflow.field, inflow.family)
    run_instance(inflow, ops)
    run_instance(stabilized, ops)
    assert calls == ["inflow", "stabilized"]
    assert alive == [[], [False]]   # released before the next plan is built
    ops.plan("stabilized")
    assert calls == ["inflow", "stabilized"]    # the last plan is kept
    assert built[-1]() is not None


def test_scheme_runs_on_one_set_build_one_plan_each(monkeypatch):
    # the shape of an eps sweep on one operator set: every eps of one
    # scheme, then of the next; one plan each, and only the last is kept
    calls, built = _counted_plans(monkeypatch)
    ops = None
    for scheme in ("inflow", "stabilized"):
        for eps in (1e-10, 1e-4, 1.0):
            spec = _smooth_spec(scheme, eps, 2.0, 4, family="q1",
                                sigma=1e-3 if scheme == "stabilized" else 0.0)
            ops = ops or SchemeOperators(spec.build_mesh(), spec.field, spec.family)
            assert run_instance(spec, ops).solve_status == "OK"
    assert calls == ["inflow", "stabilized"]
    assert [idx() is not None for idx in built] == [False, True]


def _owner(array):
    return array if array.base is None else array.base


@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_forms_are_stored_at_their_nnz_on_one_read_only_pattern(family):
    # scipy's COO -> CSR conversion leaves a form's arrays at the COO size
    # (16 entries per Q1 element, about 9 per dof); the operator set keeps
    # each form's data at its nnz and one pattern for all three
    spec = _smooth_spec("stabilized", 1e-4, 2.0, 8, sigma=1e-3, family=family)
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    forms = (ops.K, ops.P, ops.M)
    for name in ("indices", "indptr"):
        arrays = [getattr(form, name) for form in forms]
        assert len({id(_owner(array)) for array in arrays}) == 1, name
        assert _owner(arrays[0]).size == arrays[0].size, name
        assert not any(array.flags.writeable for array in arrays), name
    for form, kind in zip(forms, ("a_full", "a_par", "mass")):
        assert _owner(form.data).size == form.nnz
        fresh = schemes.assemble(ops.u_space, kind, spec.field)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(form, name), getattr(fresh, name)), name


def test_operator_set_keeps_each_array_once():
    # what a Q1 n = 64 operator set keeps after an inflow and a stabilized
    # instance: 12.53 MiB with every plan, the forms in their COO-size
    # buffers and the (E, Q) weights cached; 8.76 MiB with one plan, the
    # forms at their nnz on one pattern and no cached weights.  The field
    # values (3.7 MiB) and the exact values (2.3 MiB) make most of the rest.
    field = FieldSpec("variable_alpha", 2.0)
    specs = [ProblemSpec(scheme, 1e-10, field, "low_reg", family="q1", n=64,
                         sigma=1e-4 if scheme == "stabilized" else 0.0)
             for scheme in ("inflow", "stabilized")]
    mesh = specs[0].build_mesh()
    tracemalloc.start()
    try:
        ops = SchemeOperators(mesh, field, "q1")
        for spec in specs:
            assert run_instance(spec, ops).solve_status == "OK"
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 10.5 * 2 ** 20


def test_rhs_lower_block_zero_for_homogeneous_case():
    spec = _smooth_spec("inflow", 1e-10, 2.0, 6)
    system = build_system(spec)
    rhs = system.rhs[np.argsort(system.order)]   # the unknowns' own order
    assert np.all(rhs[system.n_u:] == 0.0)


class _ZeroCase:
    """Zero load functional and zero Dirichlet values."""

    def functional(self, field):
        return LinearFunctional()

    def boundary_values(self, x, y):
        return np.zeros(np.shape(x))


class _WrappedCase:
    """A user case that holds a manufactured solution and implements the
    protocol itself: its load functional takes the field only."""

    def __init__(self, inner):
        self.inner = inner

    def functional(self, field):
        return rhs_functional(self.inner, field)

    def boundary_values(self, x, y):
        return self.inner.boundary_values(x, y)

    def u(self, x, y):
        return self.inner.u(x, y)

    def grad_u(self, x, y):
        return self.inner.grad_u(x, y)


@pytest.mark.parametrize("scheme", ["standard", "inflow", "stabilized"])
def test_user_case_runs_through_run_instance(scheme):
    # a user case of the functional(field) protocol gives the record of the
    # built-in case it wraps, bit for bit, on fresh and on shared operators
    built_in = _smooth_spec(scheme, 0.5, 2.0, 6,
                            sigma=1e-3 if scheme == "stabilized" else 0.0)
    user = replace(built_in, case=_WrappedCase(built_in.solution))
    assert user.solution is user.case
    ops = SchemeOperators(user.build_mesh(), user.field, user.family)
    want = repr(replace(run_instance(built_in), wall_time_seconds=0.0))
    for got in (run_instance(user), run_instance(user, ops)):
        assert got.solve_status == "OK"
        assert repr(replace(got, wall_time_seconds=0.0)) == want   # nan too


def test_zero_load_gives_zero_solution():
    spec = ProblemSpec("inflow", 0.5, FieldSpec("variable_alpha", 2.0),
                       _ZeroCase(), n=5)
    system = build_system(spec)
    result = solve_scheme(system)
    assert np.abs(result.u).max() == 0.0
    assert np.abs(result.q).max() == 0.0


@pytest.mark.parametrize("scheme,sigma", [("inflow", 0.0), ("stabilized", 1e-3)])
def test_decoupling_at_eps_one(scheme, sigma):
    spec = _smooth_spec(scheme, 1.0, 2.0, 8, sigma=sigma)
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    system = build_system(spec, operators=ops)
    result = solve_scheme(system)
    # pure primal solve of the same load
    ell = assemble_rhs(ops.u_space, spec.solution.functional(spec.field))
    uf = ops.u_space.free
    K = ops.K[uf][:, uf].tocsr()
    u_pure = ops.u_space.expand(solve(lu_factor(K), ell[uf]), 0.0)
    scale = np.abs(u_pure).max()
    assert np.abs(result.u - u_pure).max() <= 1e-10 * scale


def test_schemes_agree_when_aligned():
    # identical accuracy of both reformulations in the aligned strong regime
    r_in = run_instance(_smooth_spec("inflow", 1e-10, 0.0, 10))
    r_st = run_instance(_smooth_spec("stabilized", 1e-10, 0.0, 10, sigma=0.05 ** 3))
    assert r_in.err_L2_rel == pytest.approx(r_st.err_L2_rel, rel=5e-4)


def test_paper_row_isotropic():
    # first mesh-refinement row of the isotropic regime: 6.97e-4 at spacing 0.05
    rec = run_instance(_smooth_spec("inflow", 1.0, 0.0, 10))
    assert rec.err_L2_rel == pytest.approx(6.97e-4, rel=0.5)


def test_standard_scheme_converges_at_moderate_eps():
    # away from the stiff regime the single-field discretization is sound
    eps = 1e-2
    errs = [run_instance(_smooth_spec("standard", eps, 2.0, n)).err_L2_rel
            for n in (8, 16)]
    order = np.log2(errs[0] / errs[1])
    assert 2.6 <= order <= 3.4


def test_standard_equals_ap_at_eps_one():
    r_std = run_instance(_smooth_spec("standard", 1.0, 2.0, 8))
    r_in = run_instance(_smooth_spec("inflow", 1.0, 2.0, 8))
    assert r_std.err_L2_rel == pytest.approx(r_in.err_L2_rel, rel=1e-10)


def test_standard_conditioning_degrades():
    conds = []
    for eps in (1e-2, 1e-4, 1e-6):
        rec = run_instance(_smooth_spec("standard", eps, 2.0, 10))
        conds.append(rec.cond1)
    assert conds[1] >= 10.0 * conds[0]
    assert conds[2] >= 10.0 * conds[1]


def test_inhomogeneous_dirichlet_low_reg():
    # the low-regularity profile carries nonzero constant traces; the
    # discrete solution must pick them up exactly at constrained dofs
    field = FieldSpec("variable_alpha", 0.0)
    spec = ProblemSpec("inflow", 1e-10, field, "low_reg", family="q1", n=8)
    case = spec.solution
    system = build_system(spec)
    result = solve_scheme(system)
    us = system.u_space
    pts = us.coords[us.constrained]
    assert np.allclose(result.u[us.constrained], case.u_limit(pts[:, 0], pts[:, 1]))
    err = error_norms(us, result.u, case)[0]
    assert err < 5e-3


def test_build_without_case_names_the_missing_case(monkeypatch):
    assembled = []
    monkeypatch.setattr("anisofem.schemes.assemble",
                        lambda *args, **kwargs: assembled.append(args))
    spec = ProblemSpec("inflow", 0.5, FieldSpec("variable_alpha", 0.0), n=4)
    with pytest.raises(ValueError, match=r"ProblemSpec\.case"):
        run_instance(spec)
    assert assembled == []          # rejected before any assembly


_OTHER_OPERATORS = dict(family="q2", field=FieldSpec("variable_alpha", 2.0),
                        nx=20, ny=20, Lx=2.0, Ly=2.0)


@pytest.mark.parametrize("key", list(_OTHER_OPERATORS))
def test_build_refuses_operators_of_another_instance(key):
    # such a set used to solve its own problem and record the spec's n and
    # h: at inflow, eps = 1e-10, operators for alpha = 2, n = 20 gave
    # err_L2_rel 0.361 as OK, against 0.00906 with the spec's own set
    field = FieldSpec("variable_alpha", 0.0)
    spec = ProblemSpec("inflow", 1e-10, field, "smooth", family="q1", n=10)
    built = dict(family="q1", field=field, nx=10, ny=10, Lx=1.0, Ly=1.0)
    built[key] = _OTHER_OPERATORS[key]
    mesh = build_quad_mesh(built["nx"], built["ny"], built["Lx"], built["Ly"])
    ops = SchemeOperators(mesh, built["field"], built["family"])
    with pytest.raises(ValueError, match="operator set was built for another"):
        run_instance(spec, ops)


def test_mesh_kind_follows_family():
    field = FieldSpec("aligned_e2")
    spec = ProblemSpec("inflow", 0.5, field, None, family="p2", n=4)
    assert spec.build_mesh().element_kind == "triangle"


def test_sigma_tail_point_solves_after_threshold_failure():
    # canonical sigma-sweep point whose threshold-pivoted factor failed the
    # scheme's pivot test in COLAMD's column order and was solved by the
    # partial-pivoting retry; in the nested-dissection order it passes on
    # the first attempt (test_solver covers the retry of an ordered matrix)
    spec = _smooth_spec("stabilized", 1e-10, 0.0, 30, sigma=1e-12)
    assert run_instance(spec).solve_status == "OK"


@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_riesz_norm_factors_the_standard_plan(monkeypatch, family):
    field = FieldSpec("variable_alpha", 2.0)
    ops = SchemeOperators(ProblemSpec("standard", 1.0, field, family=family,
                                      n=6).build_mesh(), field, family)
    factors = []

    def factor(*args, **kwargs):
        factors.append((lu_factor(*args, **kwargs), kwargs.get("ordered")))
        return factors[-1][0]

    monkeypatch.setattr(schemes, "lu_factor", factor)
    free = ops.u_space.free
    r = np.random.default_rng(5).standard_normal(len(free))
    norm = ops.riesz_norm(r)
    # the reference: a factor of K on the free dofs in their own order
    Kf = ops.K[free][:, free].tocsr()
    v = solve(lu_factor(Kf), r)
    assert abs(norm - np.sqrt(v @ r)) <= 1e-13 * norm
    (riesz, ordered), = factors
    order = ops.plan("standard").order
    assert ordered is True
    assert abs(riesz.matrix - Kf[order][:, order]).max() == 0.0
    # the first attempt, not the retry
    assert np.array_equal(riesz.lu.perm_c, np.arange(len(order)))


def _counted_loads(monkeypatch):
    """Make schemes.assemble_rhs record the thread of every call."""
    threads = []

    def counted(*args):
        threads.append(threading.current_thread())
        return assemble(*args)

    assemble = schemes.assemble_rhs
    monkeypatch.setattr(schemes, "assemble_rhs", counted)
    return threads


def test_load_memo_survives_the_scheme_loop(monkeypatch):
    # the eps sweep runs every eps of one scheme, then of the next, on one
    # operator set: each (case, field, eps) load is assembled once, and
    # every load and factor runs on the calling thread
    eps_list = [1e-10, 1e-4, 1.0]
    cfg = StudyConfig("eps_sweep", family="q1", n=[8], eps=eps_list)
    loads = _counted_loads(monkeypatch)
    factors = []

    def factor(*args, **kwargs):
        factors.append(threading.current_thread())
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(schemes, "lu_factor", factor)
    records = run_study(cfg)
    assert len(records) == 2 * len(eps_list)
    assert len(loads) == len(eps_list)
    assert set(loads) == set(factors) == {threading.current_thread()}
    for rec in records:
        fresh = run_instance(_spec(rec.scheme, "q1", 8, rec.eps,
                                   ("power", 3), 2.0))
        for name in StudyRecord.__dataclass_fields__:
            if name != "wall_time_seconds":
                assert getattr(rec, name) == getattr(fresh, name), name


def test_warm_build_system_holds_at_most_one_row_beside_its_result():
    # a stabilized system gathers from four coefficient rows of nnz(K)
    # doubles; holding them all beside the data read 1.78 MiB above what
    # build_system returns, 4.0 rows.  Formed a chunk of entries at a time
    # it reads 0.32 MiB, 0.73 of a row at this size; the slack covers small
    # allocations of numpy and scipy.
    spec = _smooth_spec("stabilized", 1e-4, 2.0, 30, sigma=1e-6)
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    build_system(spec, ops)             # plan, load and M are built
    tracemalloc.start()
    try:
        system = build_system(spec, ops)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.matrix.nnz > 0
    assert peak - returned <= 8 * ops.K.nnz + 64 * 2 ** 10


def test_field_values_are_evaluated_once_per_operator_set(monkeypatch):
    # K, P and the three loads of both schemes read one evaluation of A
    calls = []

    def counted(*args):
        calls.append(args[0])
        return eval_A(*args)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("anisofem")
                and vars(module).get("eval_A") is eval_A):
            monkeypatch.setattr(module, "eval_A", counted)
    cfg = StudyConfig("eps_sweep", family="q1", n=[8],
                      eps=[1e-10, 1e-4, 1.0])
    assert len(run_study(cfg)) == 6
    assert calls == [FieldSpec("variable_alpha", 2.0)]


def _reference_load(space, case, field, eps):
    """The load with a flux that evaluates b, A and a_par itself."""
    def flux(x, y, field_values):
        b = eval_b(field, x, y)
        A = eval_A(field, x, y)
        apar = np.asarray(field.a_par(x, y), dtype=float)
        gw = case.grad_perturbation(x, y)
        gu = case.grad_u_limit(x, y) + eps * gw
        bgw = b[..., 0] * gw[..., 0] + b[..., 1] * gw[..., 1]
        par = ((1.0 - eps) * apar * bgw)[..., None] * b
        return par + (A @ gu[..., None])[..., 0]
    return assemble_rhs(space, LinearFunctional(flux=flux))


@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
@pytest.mark.parametrize("profile", ["smooth", "low_reg"])
def test_case_load_reads_the_assembly_field_values(profile, family):
    field = FieldSpec("variable_alpha", 2.0)
    spec = ProblemSpec("inflow", 0.5, field, family=family, n=5)
    ops = SchemeOperators(spec.build_mesh(), field, family)
    for eps in (0.0, 1e-10, 0.5, 1.0):
        case = ManufacturedCase(profile, 2.0, eps)
        assert np.array_equal(ops.case_load(case),
                              _reference_load(ops.u_space, case, field, eps))


def test_mass_matrix_is_assembled_on_first_read(monkeypatch):
    kinds = []

    def counted(space, kind, field=None):
        kinds.append(kind)
        return assemble(space, kind, field)

    assemble = schemes.assemble
    monkeypatch.setattr(schemes, "assemble", counted)
    cfg = StudyConfig("eps_sweep", scheme=["inflow"], family="q1", n=[8],
                      eps=[1e-10, 1.0])
    assert len(run_study(cfg)) == 2
    assert kinds == ["a_full", "a_par"]
    spec = _smooth_spec("stabilized", 1e-4, 2.0, 4, sigma=1e-3, family="q1")
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    for _ in range(2):
        run_instance(spec, ops)
    assert kinds == ["a_full", "a_par"] * 2 + ["mass"]


class _LoadFailure(Exception):
    pass


class _FailingLoadCase(_ZeroCase):
    """Zero Dirichlet values and a load functional that raises."""

    def functional(self, field):
        def source(x, y):
            raise _LoadFailure("no load here")
        return LinearFunctional(source=source)


def test_failing_load_is_joined_and_raised():
    spec = ProblemSpec("inflow", 0.5, FieldSpec("variable_alpha", 2.0),
                       _FailingLoadCase(), n=5)
    with pytest.raises(_LoadFailure):
        run_instance(spec)


def test_singular_instance_waits_for_its_load(monkeypatch):
    # eps = sigma = 0 leaves the auxiliary variable of the stabilized
    # scheme non-unique on the aligned field: the factor fails, and the
    # memo keeps the instance's load
    loads = _counted_loads(monkeypatch)
    with pytest.warns(UserWarning):
        spec = _smooth_spec("stabilized", 0.0, 0.0, 8, sigma=0.0)
    ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    assert run_instance(spec, ops).solve_status == "SINGULAR"
    assert spec.solution in ops._loads
    ell = ops.case_load(spec.solution)
    assert len(loads) == 1 and not ell.flags.writeable
