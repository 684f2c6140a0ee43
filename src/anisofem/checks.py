"""Fast invariant suite behind ``anisofem check``.

Small meshes and fixed seeds only; the whole suite stays well under a
minute.  Each check returns (name, passed, detail).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import scipy.sparse as sp

from .fields import FieldSpec, ManufacturedCase, eval_b
from .fem import FAMILIES, parallel_seminorm, reference_rule, shape_functions
from .geometry import build_quad_mesh
from .schemes import SchemeOperators
from .solver import cond1_estimate, lu_factor, solve
from .studies import StudyRecord, emit_csv, read_csv


def _sym_defect(A):
    d = sp.csr_matrix(A - A.T)
    amax = np.abs(A.data).max() if A.nnz else 1.0
    dmax = np.abs(d.data).max() if d.nnz else 0.0
    return dmax / amax


def _operators():
    return SchemeOperators(build_quad_mesh(8, 8), FieldSpec("variable_alpha", 2.0),
                           "q2")


def check_assembly_symmetry():
    ops = _operators()
    worst = max(_sym_defect(A) for A in (ops.K, ops.P, ops.M))
    return worst <= 1e-12, f"max relative asymmetry {worst:.2e}"


def check_partition_of_unity():
    worst = 0.0
    for family in FAMILIES:
        pts, _ = reference_rule(family, "default")
        N, _ = shape_functions(family, pts)
        worst = max(worst, float(np.abs(N.sum(axis=0) - 1.0).max()))
    return worst <= 1e-13, f"max deviation from 1: {worst:.2e}"


def check_unit_direction():
    xs = np.linspace(0.0, 1.0, 50)
    X, Y = np.meshgrid(xs, xs)
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        b = eval_b(FieldSpec("variable_alpha", alpha), X, Y)
        worst = max(worst, float(np.abs(np.hypot(b[..., 0], b[..., 1]) - 1.0).max()))
    return worst <= 1e-14, f"max | |b| - 1 |: {worst:.2e}"


def check_limit_parallel_gradient():
    xs = np.linspace(0.0, 1.0, 50)
    X, Y = np.meshgrid(xs, xs)
    worst = 0.0
    for alpha in (0.0, 1.0, 2.0):
        field = FieldSpec("variable_alpha", alpha)
        case = ManufacturedCase("smooth", alpha, 1.0)
        b = eval_b(field, X, Y)
        g = case.grad_u_limit(X, Y)
        worst = max(worst, float(np.abs(np.sum(b * g, axis=-1)).max()))
    return worst <= 1e-12, f"max |b.grad(u_limit)|: {worst:.2e}"


def check_star_norm():
    ops = _operators()
    q_space = ops.q_space
    rng = np.random.default_rng(7)
    worst_hom, worst_dom = 0.0, 0.0
    for _ in range(100):
        q = np.zeros(q_space.n_dofs)
        q[q_space.free] = rng.standard_normal(len(q_space.free))
        star = ops.dual_norm(q)
        par = parallel_seminorm(q, ops.P)
        c = rng.uniform(0.5, 3.0)
        star_c = ops.dual_norm(c * q)
        worst_hom = max(worst_hom, abs(star_c - c * star) / max(star_c, 1e-300))
        worst_dom = max(worst_dom, (star - par) / max(par, 1e-300))
    ok = worst_hom <= 1e-12 and worst_dom <= 1e-10
    return ok, (f"homogeneity defect {worst_hom:.2e}, "
                f"dominance excess {worst_dom:.2e}")


def check_lu_residual():
    rng = np.random.default_rng(11)
    n = 200
    A = rng.standard_normal((n, n))
    A[np.abs(A) < 1.0] = 0.0
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    As = sp.csr_matrix(A)
    factor = lu_factor(As)
    norm_a1 = float(np.max(np.abs(As).sum(axis=0)))
    worst = 0.0
    for _ in range(5):
        b = rng.standard_normal(n)
        x = solve(factor, b)
        res = float(np.abs(As @ x - b).max())
        bound = 1e-8 * (norm_a1 * np.abs(x).max() + np.abs(b).max())
        worst = max(worst, res / bound)
    return worst <= 1.0, f"worst residual / contract: {worst:.2e}"


def check_cond1_sandwich():
    rng = np.random.default_rng(13)
    ok = True
    worst_low, worst_high = np.inf, 0.0
    for _ in range(20):
        A = rng.standard_normal((50, 50))
        est = cond1_estimate(lu_factor(sp.csr_matrix(A)))
        exact = float(np.max(np.abs(A).sum(axis=0)) *
                      np.max(np.abs(np.linalg.inv(A)).sum(axis=0)))
        worst_low = min(worst_low, est / exact)
        worst_high = max(worst_high, est / exact)
        ok = ok and (0.1 * exact <= est <= exact * (1.0 + 1e-12))
    return ok, f"estimate/exact in [{worst_low:.3f}, {worst_high:.6f}]"


def check_csv_round_trip():
    records = [
        StudyRecord("inflow", 10, 0.1, 1e-10, 1e-3, 2.0, 1.234e-5, 6.7e-4,
                    8.9e-6, 4.3e-4, 0.12, 3.4, 1.7e8, "OK", 0.125),
        StudyRecord("stabilized", 20, 0.05, 1.0, 0.0, 0.0, np.pi, np.e,
                    1 / 3, 2 / 3, float("nan"), float("nan"), 1e12,
                    "SINGULAR", 1e-3),
    ]
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        emit_csv(records, path)
        back = read_csv(path)
    finally:
        os.unlink(path)
    if len(back) != len(records):
        return False, "record count changed"
    for a, b in zip(records, back):
        for name in a.__dataclass_fields__:
            va, vb = getattr(a, name), getattr(b, name)
            if va != vb and not (va != va and vb != vb):    # nan stays nan
                return False, f"field {name} changed: {va!r} -> {vb!r}"
    return True, "bit-exact round trip"


ALL_CHECKS = [
    ("assembly symmetry", check_assembly_symmetry),
    ("partition of unity", check_partition_of_unity),
    ("unit direction field", check_unit_direction),
    ("limit parallel gradient", check_limit_parallel_gradient),
    ("dual-norm homogeneity and dominance", check_star_norm),
    ("LU residual contract", check_lu_residual),
    ("cond1 dense-oracle sandwich", check_cond1_sandwich),
    ("CSV round trip", check_csv_round_trip),
]


def run_checks(verbose: bool = True) -> bool:
    """Run the whole suite; prints one PASS/FAIL line per check."""
    all_ok = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        all_ok = all_ok and ok
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
