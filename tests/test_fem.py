import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from anisofem import fem, studies
from anisofem.fields import (FieldSpec, FieldValues, LinearFunctional,
                             ManufacturedCase, eval_field, rhs_functional)
from anisofem.fem import (FAMILIES, FORM_KINDS, ND_LEAF, FemSpace, assemble,
                          assemble_rhs, error_norms, nd_blocks, nested_dissection,
                          parallel_seminorm, shape_functions, reference_rule)
from anisofem.geometry import (Tag, build_quad_mesh, build_tri_mesh,
                               classify_boundary)
from anisofem.schemes import SchemeOperators

UNIT_FIELD = FieldSpec("variable_alpha", 0.0)


def _space(n, family="q1", tags=(), lx=1.0, ly=1.0, alpha=2.0):
    kind, _ = FAMILIES[family]
    mesh = build_quad_mesh(n, n, lx, ly) if kind == "quad" else build_tri_mesh(n, lx, ly)
    field = FieldSpec("variable_alpha", alpha)
    bt = classify_boundary(mesh, field) if tags else None
    return FemSpace(mesh, family, set(tags), bt)


def test_dof_counts_and_constraints():
    sp = _space(2, "q1", {Tag.DIRICHLET}, alpha=2.0)
    assert sp.n_dofs == 9
    assert len(sp.constrained) == 6
    sp2 = _space(1, "q2")
    assert sp2.n_dofs == 9
    assert len(sp2.constrained) == 0
    sp3 = _space(2, "q1", {Tag.DIRICHLET, Tag.INFLOW}, alpha=2.0)
    assert len(sp3.constrained) == 7


def test_dof_count_formula():
    for family, n in (("q1", 7), ("q2", 5), ("p1", 6), ("p2", 4)):
        sp = _space(n, family)
        k = FAMILIES[family][1]
        assert sp.n_dofs == (k * n + 1) ** 2


def test_family_mesh_compatibility():
    mesh = build_quad_mesh(2, 2)
    with pytest.raises(ValueError):
        FemSpace(mesh, "p1")
    with pytest.raises(ValueError):
        FemSpace(build_tri_mesh(2), "q2")


def _reference_tables(mesh, family, purpose):
    """The quadrature tables from their einsum formulas, the reference the
    tables and points of FemSpace must match bit for bit; G (E,nd,Q,2)
    and xq (E,Q,2) are the physical gradients and points."""
    pts, wts = reference_rule(family, purpose)
    N, dN = shape_functions(family, pts)
    c = mesh.nodes[mesh.elements]
    J = np.empty((mesh.n_elements, 2, 2))
    if mesh.element_kind == "quad":
        J[:, :, 0] = 0.5 * (c[:, 1] - c[:, 0])
        J[:, :, 1] = 0.5 * (c[:, 3] - c[:, 0])
        origin = 0.5 * (c[:, 0] + c[:, 2])
    else:
        J[:, :, 0] = c[:, 1] - c[:, 0]
        J[:, :, 1] = c[:, 2] - c[:, 0]
        origin = c[:, 0]
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1] / det
    inv[:, 0, 1] = -J[:, 0, 1] / det
    inv[:, 1, 0] = -J[:, 1, 0] / det
    inv[:, 1, 1] = J[:, 0, 0] / det
    return {"N": N, "dN": dN, "pts": pts, "wts": wts, "J": J, "invJ": inv,
            "origin": origin, "detJ": det, "wdet": wts[None, :] * det[:, None],
            "G": np.einsum("lqj,eji->elqi", dN, inv),
            "xq": origin[:, None, :] + np.einsum("eij,qj->eqi", J, pts)}


def _mesh(family, nx=6, ny=5):
    if FAMILIES[family][0] == "quad":
        return build_quad_mesh(nx, ny, 1.0, 1.3)
    return build_tri_mesh(nx, 1.0, 1.3)


@pytest.mark.parametrize("purpose", ["default", "error"])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_tables_match_einsum_reference(family, purpose):
    mesh = _mesh(family)
    space = FemSpace(mesh, family)
    tab = space.tables(purpose)
    ref = _reference_tables(mesh, family, purpose)
    assert set(tab) == {"N", "dN", "pts", "wts", "J", "invJ", "origin", "detJ"}
    for name in tab:
        assert np.array_equal(tab[name], ref[name]), name
    # the weights and points as the kernels form them, whole or by block
    assert np.array_equal(space.weights(purpose), ref["wdet"])
    assert np.array_equal(space.weights(purpose, slice(3, 9)), ref["wdet"][3:9])
    assert np.array_equal(space.points(purpose), ref["xq"])
    # the physical gradients the kernels form from dN and invJ
    dN = np.broadcast_to(tab["dN"], (mesh.n_elements,) + tab["dN"].shape)
    G = fem.apply_map(dN, tab["invJ"])
    assert np.allclose(G, ref["G"], rtol=1e-15, atol=0.0)


def _coo_dense(space, Ke):
    ed = space.element_dofs
    out = np.zeros((space.n_dofs, space.n_dofs))
    np.add.at(out, (ed[:, :, None], ed[:, None, :]), Ke)
    return out


def _scatter(space, re):
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.element_dofs, re)
    return out


def _reference_kernels(space, field, functional, coefficients, case):
    """K, P, M, the load and error_components from the einsum-over-G
    formulas that assembled them before the reference-tensor kernels."""
    tab = _reference_tables(space.mesh, space.family, "default")
    N, G, wdet, xq = tab["N"], tab["G"], tab["wdet"], tab["xq"]
    values = eval_field(field, xq[..., 0], xq[..., 1])
    K = np.einsum("eq,eqab,elqa,emqb->elm", wdet, values.A, G, G, optimize=True)
    s = np.einsum("elqa,eqa->elq", G, values.b)
    P = np.einsum("eq,eq,elq,emq->elm", wdet, values.a_par, s, s, optimize=True)
    M = np.einsum("eq,lq,mq->elm", wdet, N, N)
    F = functional.flux(xq[..., 0], xq[..., 1],
                        lambda f: eval_field(f, xq[..., 0], xq[..., 1]))
    load = np.einsum("eq,eqa,elqa->el", wdet, F, G, optimize=True)
    err = _reference_tables(space.mesh, space.family, "error")
    N, G, wdet, xq = err["N"], err["G"], err["wdet"], err["xq"]
    ce = coefficients[space.element_dofs]
    uh = np.einsum("el,lq->eq", ce, N)
    guh = np.einsum("el,elqa->eqa", ce, G)
    du = uh - case.u(xq[..., 0], xq[..., 1])
    dg = guh - case.grad_u(xq[..., 0], xq[..., 1])
    norms = (np.sum(wdet * du * du), np.sum(wdet[..., None] * dg * dg),
             np.sum(wdet * uh * uh), np.sum(wdet[..., None] * guh * guh))
    return ([_coo_dense(space, Ke) for Ke in (K, P, M)], _scatter(space, load),
            np.array(norms))


@pytest.mark.parametrize("case_id", ["smooth", "low_reg"])
@pytest.mark.parametrize("kind, alpha", [("variable_alpha", 2.0), ("aligned_e2", 0.0)])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_kernels_match_einsum_over_gradients(family, kind, alpha, case_id):
    space = FemSpace(_mesh(family, 5, 4), family)
    field = FieldSpec(kind, alpha)
    case = ManufacturedCase(case_id, alpha, 0.3)
    functional = rhs_functional(case, field)
    coefficients = np.random.default_rng(3).standard_normal(space.n_dofs)
    forms, load, norms = _reference_kernels(space, field, functional,
                                            coefficients, case)
    for form, ref in zip(("a_full", "a_par", "mass"), forms):
        got = assemble(space, form, field).toarray()
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), form
    got = assemble_rhs(space, functional)
    assert np.abs(got - load).max() <= 1e-14 * np.abs(load).max()
    got = np.array(fem.error_components(space, coefficients, case))
    assert np.abs(got - norms).max() <= 1e-14 * np.abs(norms).max()


@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_table_cache_holds_no_per_point_gradients(family):
    # after every kernel has run, both rules' cached tables hold the weights
    # and a few doubles of element geometry per element: no gradient or
    # point arrays (the field values are a separate, exempt cache)
    space = FemSpace(_mesh(family, 24, 24), family)
    field = FieldSpec("variable_alpha", 2.0)
    case = ManufacturedCase("smooth", 2.0, 0.3)
    for form in ("a_full", "a_par", "mass"):
        assemble(space, form, field)
    assemble_rhs(space, rhs_functional(case, field))
    error_norms(space, space.interpolate(case.u), case)
    arrays = {}
    for entry in space._tables.values():
        if isinstance(entry, FieldValues):
            continue
        for array in entry.values():
            arrays[id(array)] = array
    per_element = sum(a.size for a in arrays.values()) / space.mesh.n_elements
    n_points = sum(len(reference_rule(family, purpose)[1])
                   for purpose in ("default", "error"))
    assert per_element <= n_points + 16


def _kernel_outputs(family, field):
    """What every per-point kernel writes on a fresh operator set: the field
    values, the data of K, P and M, and the smooth and low_reg loads and
    exact values."""
    ops = SchemeOperators(_mesh(family), field, family)
    out = list(ops.u_space.field_values(field))
    out += [form.data for form in (ops.K, ops.P, ops.M)]
    for case_id in ("smooth", "low_reg"):
        case = ManufacturedCase(case_id, field.alpha, 0.3)
        out.append(ops.case_load(case))
        out += list(ops.exact_values(case))
    return out


@pytest.mark.parametrize("kind, alpha", [("variable_alpha", 2.0), ("aligned_e2", 0.0)])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_kernels_do_not_depend_on_the_block_size(family, kind, alpha, monkeypatch):
    # the mesh is one block at the default size; blocks of 1 and of 7
    # elements (the last one partial) must give the same bits
    field = FieldSpec(kind, alpha)
    assert _mesh(family).n_elements <= fem.BLOCK_ELEMENTS
    whole = _kernel_outputs(family, field)
    for size in (1, 7):
        monkeypatch.setattr(fem, "BLOCK_ELEMENTS", size)
        blocked = _kernel_outputs(family, field)
        assert len(blocked) == len(whole)
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want), size


def test_coordinate_flux_load_does_not_depend_on_the_block_size(monkeypatch):
    # the inf-sup probe's flux reads the point coordinates, not the field
    loads = []

    def recorded(space, functional):
        loads.append(assemble_rhs(space, functional))
        return loads[-1]

    monkeypatch.setattr(studies, "assemble_rhs", recorded)
    for size in (fem.BLOCK_ELEMENTS, 1, 7):
        monkeypatch.setattr(fem, "BLOCK_ELEMENTS", size)
        studies._infsup_ratio(3, FieldSpec("aligned_e2", 0.0))
    assert len(loads) == 3
    assert all(np.array_equal(load, loads[0]) for load in loads[1:])


def test_operator_set_transients_stay_within_a_budget():
    # peak allocation above what is kept while one Q1 n = 64 operator set
    # assembles K and P, a load and the exact values: 10.94 MiB when each
    # kernel ran over all points at once, 4.00 MiB over element blocks
    # (set by the block, so the same at n = 128)
    field = FieldSpec("variable_alpha", 2.0)
    case = ManufacturedCase("low_reg", 2.0, 1e-4)
    mesh = build_quad_mesh(64, 64)
    tracemalloc.start()
    try:
        ops = SchemeOperators(mesh, field, "q1")
        ops.case_load(case)
        ops.exact_values(case)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept <= 6 * 2 ** 20


M1 = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0        # 1D linear mass on [0,1]
K1 = np.array([[1.0, -1.0], [-1.0, 1.0]])            # 1D linear stiffness
M2 = np.array([[4.0, 2.0, -1.0], [2.0, 16.0, 2.0], [-1.0, 2.0, 4.0]]) / 30.0


def test_q1_element_mass_exact():
    sp = _space(1, "q1")
    M = assemble(sp, "mass").toarray()
    assert np.abs(M - np.kron(M1, M1)).max() <= 1e-15


def test_q1_element_stiffness_exact():
    sp = _space(1, "q1")
    K = assemble(sp, "a_full", UNIT_FIELD).toarray()
    expected = np.kron(M1, K1) + np.kron(K1, M1)
    assert np.abs(K - expected).max() <= 1e-14
    assert np.allclose(np.diag(K), 2.0 / 3.0)


def test_q2_element_mass_matches_hand_integration():
    sp = _space(1, "q2")
    M = assemble(sp, "mass").toarray()
    assert np.abs(M - np.kron(M2, M2)).max() <= 1e-13


def test_a_par_aligned_equals_directional_stiffness():
    # b = e1, so the parallel form weights only the x-derivatives
    x_only = FieldSpec("variable_alpha", 0.0,
                       a_perp=lambda x, y: np.zeros(np.shape(np.asarray(x, dtype=float)) + (2, 2)))
    sp = _space(3, "q1")
    P = assemble(sp, "a_par", UNIT_FIELD).toarray()
    K_dir = assemble(sp, "a_full", x_only).toarray()
    assert np.abs(P - K_dir).max() <= 1e-13


def test_forms_symmetric_and_definite():
    field = FieldSpec("variable_alpha", 2.0)
    for family in ("q2", "p2"):
        sp = _space(4, family)
        for kind in ("a_full", "a_par", "mass"):
            A = assemble(sp, kind, field).toarray()
            assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
        M = assemble(sp, "mass").toarray()
        assert np.linalg.eigvalsh(M).min() > 0
        P = assemble(sp, "a_par", field).toarray()
        assert np.linalg.eigvalsh(P).min() >= -1e-12


def test_assembly_deterministic():
    field = FieldSpec("variable_alpha", 2.0)
    sp = _space(5, "q2")
    A1 = assemble(sp, "a_full", field)
    A2 = assemble(sp, "a_full", field)
    assert np.array_equal(A1.data, A2.data)
    assert np.array_equal(A1.indices, A2.indices)
    assert np.array_equal(A1.indptr, A2.indptr)


@pytest.mark.parametrize("field", [FieldSpec("variable_alpha", 2.0),
                                   FieldSpec("aligned_e2")],
                         ids=["curved", "aligned"])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_forms_share_the_element_stencil(family, field):
    # the pattern depends on the mesh and family alone: an entry that
    # cancels (a_par across the P1/P2 diagonals on the aligned field) is
    # kept as an exact zero instead of being dropped
    space = _space(4, family)
    ed, nd = space.element_dofs, space.n_dofs
    stencil = np.unique((ed[:, :, None] * nd + ed[:, None, :]).ravel())  # i * nd + j
    for kind in FORM_KINDS:
        A = assemble(space, kind, field)
        assert A.has_canonical_format
        assert np.array_equal(A.indptr, np.searchsorted(stencil, np.arange(nd + 1) * nd))
        assert np.array_equal(A.indices, stencil % nd)
        assert np.all(A.data[np.abs(A.data) < 1e-300] == 0.0)
    if field.kind == "aligned_e2" and family.startswith("p"):
        assert np.count_nonzero(assemble(space, "a_par", field).data == 0.0) > 0


def test_a_par_kernel_on_aligned_interpolant():
    # sin(pi*y) is constant along b = e1 and the tensor interpolant keeps
    # an exactly vanishing x-derivative
    sp = _space(6, "q2")
    q = sp.interpolate(lambda x, y: np.sin(np.pi * y))
    P = assemble(sp, "a_par", UNIT_FIELD)
    M = assemble(sp, "mass")
    assert q @ (P @ q) <= 1e-10 * (q @ (M @ q))


def test_rhs_zero_functional():
    sp = _space(3, "q1")
    r = assemble_rhs(sp, LinearFunctional())
    assert np.all(r == 0.0)


def test_rhs_constant_source_single_element():
    sp = _space(1, "q1")
    r = assemble_rhs(sp, LinearFunctional(source=lambda x, y: np.ones_like(x)))
    assert np.allclose(r, 0.25)


def _q1_oracle_load(mesh_n, flux_fn, pts_1d=10):
    """Independent high-order quadrature of l(phi_i) = int F . grad(phi_i)
    for bilinear hats on an n x n unit-square grid, hand-rolled."""
    n = mesh_n
    h = 1.0 / n
    g, w = np.polynomial.legendre.leggauss(pts_1d)
    g = 0.5 * (g + 1.0)
    w = 0.5 * w
    out = np.zeros((n + 1) * (n + 1))
    for j in range(n):
        for i in range(n):
            x0, y0 = i * h, j * h
            for a, ga in enumerate(g):
                for c, gc in enumerate(g):
                    x, y = x0 + h * ga, y0 + h * gc
                    F = flux_fn(x, y)
                    xi, eta = ga, gc
                    # bilinear hats on [0,1]^2 in (xi, eta), node order
                    # (0,0), (1,0), (0,1), (1,1) to match the lattice
                    d = np.array([
                        [-(1 - eta), -(1 - xi)],
                        [(1 - eta), -xi],
                        [-eta, (1 - xi)],
                        [eta, xi],
                    ]) / h
                    nodes = [j * (n + 1) + i, j * (n + 1) + i + 1,
                             (j + 1) * (n + 1) + i, (j + 1) * (n + 1) + i + 1]
                    for l, node in enumerate(nodes):
                        out[node] += w[a] * w[c] * h * h * (F[0] * d[l, 0] + F[1] * d[l, 1])
    return out


def test_rhs_functional_matches_quadrature_oracle():
    # on 16 cells per side the default rule is quadrature-converged for the
    # trigonometric load and must agree with a tenth-order oracle
    case = ManufacturedCase("smooth", 0.0, 1.0)
    functional = rhs_functional(case, UNIT_FIELD)
    sp = _space(16, "q1")
    r = assemble_rhs(sp, functional)
    oracle = _q1_oracle_load(16, lambda x, y: functional.flux(
        x, y, lambda field: eval_field(field, x, y)))
    assert np.abs(r - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())


def test_error_norm_zero_case():
    sp = _space(3, "q1")
    coeffs = np.zeros(sp.n_dofs)
    zero = SimpleNamespace(
        u=lambda x, y: np.zeros_like(x),
        grad_u=lambda x, y: np.zeros(np.shape(np.asarray(x, dtype=float)) + (2,)))
    assert error_norms(sp, coeffs, zero)[0] == 0.0


def test_interpolant_error_second_order():
    case = ManufacturedCase("smooth", 0.0, 1.0)
    errs = []
    for n in (8, 16):
        sp = _space(n, "q1")
        coeffs = sp.interpolate(case.u)
        errs.append(error_norms(sp, coeffs, case)[0])
    assert errs[0] > 0
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_relative_norm_consistency():
    case = ManufacturedCase("smooth", 2.0, 0.5)
    sp = _space(6, "q2")
    coeffs = sp.interpolate(lambda x, y: np.cos(x) * (y + 0.2))
    from anisofem.fem import error_components
    e2, eh2, u2, uh2 = error_components(sp, coeffs, case)
    _, _, rel, rel_h1 = error_norms(sp, coeffs, case)
    assert rel == pytest.approx(np.sqrt(e2) / np.sqrt(u2), rel=1e-12)
    assert rel_h1 == pytest.approx(np.sqrt(e2 + eh2) / np.sqrt(u2 + uh2), rel=1e-12)


def test_star_norm_zero_and_homogeneity_and_dominance():
    ops = SchemeOperators(build_quad_mesh(8, 8), FieldSpec("variable_alpha", 2.0),
                          "q2")
    q_space = ops.q_space
    assert ops.dual_norm(np.zeros(q_space.n_dofs)) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(100):
        q = np.zeros(q_space.n_dofs)
        q[q_space.free] = rng.standard_normal(len(q_space.free))
        star = ops.dual_norm(q)
        assert star <= parallel_seminorm(q, ops.P) * (1.0 + 1e-10)
        c = rng.uniform(0.25, 4.0)
        assert ops.dual_norm(c * q) == pytest.approx(c * star, rel=1e-12)


def test_star_norm_ratio_approaches_closed_form():
    # moderate resolution variant of the separated-mode ratio check
    from anisofem.studies import separated_mode_ratio, run_study, StudyConfig

    out = run_study(StudyConfig("dual_norm_check", n=[32], k=[1]))
    k, computed, analytic = out[0]
    assert analytic == pytest.approx(separated_mode_ratio(1), rel=1e-15)
    assert computed == pytest.approx(analytic, rel=0.01)


def test_dirichlet_values_expand():
    sp = _space(3, "q1", {Tag.DIRICHLET}, alpha=0.0)
    pts = sp.coords[sp.constrained]
    pinned = 2.0 * pts[:, 1] - 0.5
    reduced = np.arange(len(sp.free), dtype=float)
    full = sp.expand(reduced, pinned)
    assert np.array_equal(full[sp.constrained], pinned)
    assert np.array_equal(full[sp.free], reduced)
    # the space keeps no pinned values of its own
    assert np.array_equal(sp.expand(reduced, 0.0)[sp.constrained],
                          np.zeros(len(sp.constrained)))


def _check_nested_dissection(space):
    mx, my, k = space.mx, space.my, space.degree
    order = nested_dissection(space)
    assert np.array_equal(np.sort(order), np.arange(space.n_dofs))
    # lattice coordinates of every element's dofs, to find straddled lines
    ei, ej = space.element_dofs % mx, space.element_dofs // mx
    for points, is_separator in nd_blocks(mx, my, k):
        i, j = points % mx, points // mx
        if not is_separator:
            assert np.ptp(i) < ND_LEAF and np.ptp(j) < ND_LEAF
            continue
        # a separator is one lattice line through element boundaries only
        if np.ptp(i) == 0:
            line, lo, hi = i[0], ei.min(axis=1), ei.max(axis=1)
        else:
            assert np.ptp(j) == 0
            line, lo, hi = j[0], ej.min(axis=1), ej.max(axis=1)
        assert line % k == 0
        assert not np.any((lo < line) & (line < hi))
    return order


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_nested_dissection_of_the_lattice(family, n):
    order = _check_nested_dissection(_space(n, family))
    # a pattern-only order: a second build gives the same permutation
    assert np.array_equal(order, nested_dissection(_space(n, family)))


@pytest.mark.parametrize("family, nx, ny", [("q1", 20, 7), ("q2", 5, 12)])
def test_nested_dissection_of_a_rectangular_lattice(family, nx, ny):
    space = FemSpace(build_quad_mesh(nx, ny, 1.0, 0.4), family)
    assert (space.mx, space.my) != (space.my, space.mx)
    _check_nested_dissection(space)


@pytest.mark.parametrize("leaf", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
@pytest.mark.parametrize("family", ["q1", "q2", "p1", "p2"])
def test_nested_dissection_ends_at_any_leaf_size(family, n, leaf, monkeypatch):
    # a region with no element line strictly inside is a leaf, so the
    # recursion ends and never yields an empty block
    monkeypatch.setattr(fem, "ND_LEAF", leaf)
    space = _space(n, family)
    blocks = list(nd_blocks(space.mx, space.my, space.degree))
    assert all(len(points) > 0 for points, _ in blocks)
    order = np.concatenate([points for points, _ in blocks])
    assert np.array_equal(np.sort(order), np.arange(space.n_dofs))


@pytest.mark.parametrize("family, n, digest", [("q2", 30, "b8aa216c118d87bc"),
                                               ("q2", 50, "dc88fde24065a74c"),
                                               ("q1", 128, "18138a0c19bb4d3d")])
def test_nested_dissection_order_is_stable(family, n, digest):
    # the order of the default leaf size on the benchmark lattices, as
    # first measured; the scheme factorizations' fill depends on it
    order = nested_dissection(FemSpace(build_quad_mesh(n, n, 1.0, 1.0), family))
    assert hashlib.sha256(order.astype("<i8").tobytes()).hexdigest()[:16] == digest
