"""The three discrete formulations and their block systems.

* ``standard``   - single-field singular-perturbation discretization,
                   matrix (1-eps)/eps * P + K; breaks down as eps -> 0.
* ``inflow``     - auxiliary variable pinned to zero on the inflow boundary
                   (and on the tangential boundary, since its space sits
                   inside the primal one).
* ``stabilized`` - auxiliary variable in the primal space with an extra
                   -sigma * mass term restoring uniqueness.

The second block row is assembled exactly as the weak equations read,
[P^T, -(eps*C + sigma*M)].  sigma enters the stabilized scheme only: a
spec of another scheme with sigma != 0 is refused.

All instances of a scheme on one operator set share one sparsity
pattern, kept as the scheme's ``SchemePlan``: an instance forms each
block as a linear combination of the data of K, P and M, which share one
pattern, and gathers its data from the blocks.  The load vectors read
the field values that K and P were assembled with.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .fields import FieldSpec, ManufacturedCase
from .fem import (FAMILIES, ExactValues, FemSpace, assemble, assemble_rhs,
                  exact_values, nested_dissection)
from .geometry import Mesh, Tag, build_quad_mesh, build_tri_mesh, classify_boundary
from .solver import LuFactor, lu_factor, solve, solve_with_cond1
from .spectral import FourierRhs, SpectralSolution, spectral_solve

SCHEME_KINDS = ("standard", "inflow", "stabilized")


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one discrete problem instance.

    ``case`` is a recipe without eps, alpha or sigma: a manufactured case's
    id ("smooth" or "low_reg"), a ``FourierRhs`` for the mode solution on
    the aligned field over (0, pi)^2, or an object that implements the
    case protocol, used as it stands.  The spec binds the recipe once, as
    ``solution``: ``ManufacturedCase(id, field.alpha, eps)``, or
    ``spectral_solve(rhs, eps, sigma)``.  A solution supplies the load
    functional ``functional(field)``, the Dirichlet values
    ``boundary_values(x, y)`` and the error reference ``u``/``grad_u``.  A
    bound built-in case raises TypeError.  eps and sigma are finite and
    nonnegative, and sigma belongs to the stabilized scheme: another
    scheme with sigma != 0 raises ValueError.
    """

    scheme: str
    eps: float
    field: FieldSpec
    case: str | FourierRhs | object | None = None
    sigma: float = 0.0
    family: str = "q2"
    n: int = 10
    Lx: float = 1.0
    Ly: float = 1.0

    def __post_init__(self):
        if self.scheme not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        # the AP formulations target eps in [0, 1] but remain assemblable
        # beyond it, which the robustness sweeps exploit (eps up to 10)
        if not 0.0 <= self.eps < np.inf:
            raise ValueError("eps must be finite and nonnegative")
        if self.scheme == "standard" and self.eps == 0.0:
            raise ValueError("the standard scheme needs eps > 0")
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if self.sigma != 0.0 and self.scheme != "stabilized":
            raise ValueError(f"the {self.scheme} scheme takes sigma = 0: sigma "
                             "enters the stabilized scheme only")
        if type(self.case) in (ManufacturedCase, SpectralSolution):
            raise TypeError("pass the case's recipe, its id or its FourierRhs: "
                            "the spec binds it to its own eps, alpha and sigma")
        solution = self.case
        if isinstance(solution, str):
            solution = ManufacturedCase(solution, self.field.alpha, self.eps)
        elif isinstance(solution, FourierRhs):
            solution = spectral_solve(solution, self.eps, self.sigma)
        object.__setattr__(self, "solution", solution)
        if self.scheme == "stabilized" and self.sigma == 0.0:
            # level 3: past the dataclass-generated __init__ to its caller
            warnings.warn("stabilized scheme with sigma = 0: the auxiliary "
                          "variable is not unique and the solver may report "
                          "a singular matrix", stacklevel=3)

    @property
    def operators_key(self) -> tuple:
        """What its operator set is built from: family, field, nx, ny, Lx, Ly."""
        return (self.family, self.field, self.n, self.n, self.Lx, self.Ly)

    def build_mesh(self) -> Mesh:
        kind, _ = FAMILIES[self.family]
        if kind == "quad":
            return build_quad_mesh(self.n, self.n, self.Lx, self.Ly)
        return build_tri_mesh(self.n, self.Lx, self.Ly)


class SchemeOperators:
    """Mesh, spaces and the three assembled forms, reusable across
    (case, eps, sigma) instances on the same mesh and field, which
    ``key`` names as a spec's ``operators_key`` does.  Nothing that
    builds or solves a system writes into them.

    The inflow q-space is the u-space with a larger constrained set, so
    the two share their quadrature tables and the field's b, A and a_par
    at the quadrature points, which K, P and every load read.  Two memos
    keep what the instances of a sweep recompute otherwise: the load
    vector of every bound case met so far, and the exact values
    of the last case at the error quadrature points (one entry, which it
    drops before computing a new one: it is 18 times the size of a
    load).  Both return read-only arrays and live as long as the
    operator set.

    K and P, which every scheme reads, are assembled here; the mass
    matrix M, read only by a stabilized system with sigma > 0, on first
    read.  The three hold only their data, on the one read-only pattern
    of the u-space.  A scheme's plan is built on first use, by the first
    system of that scheme, so it is timed with that instance; the set
    keeps the last plan it built only (a one-entry memo like the exact
    values, dropped before the next plan is built), since a sweep runs
    the instances of one scheme together.  The LU factor behind
    ``riesz_norm``, of the standard plan's matrix at (1, 0, 0), is built
    on first use too and kept for the life of the operator set.
    """

    def __init__(self, mesh: Mesh, field: FieldSpec, family: str):
        self.mesh = mesh
        self.field = field
        self.family = family
        self.key = (family, field, mesh.nx, mesh.ny, mesh.Lx, mesh.Ly)
        self.tags = classify_boundary(mesh, field)
        self.u_space = FemSpace(mesh, family, {Tag.DIRICHLET}, self.tags)
        self.q_space = self.u_space.with_constraints({Tag.DIRICHLET, Tag.INFLOW},
                                                     self.tags)
        self._pattern = None            # (indices, indptr) of every form
        self.K = self._stored(assemble(self.u_space, "a_full", field))
        self.P = self._stored(assemble(self.u_space, "a_par", field))
        self._loads = {}                # bound case -> load vector
        self._exact = (None, None)      # (case, ExactValues)
        self._plan = (None, None)       # (scheme, SchemePlan)
        self._riesz: LuFactor | None = None

    @cached_property
    def M(self):
        """The mass matrix, assembled on first read."""
        return self._stored(assemble(self.u_space, "mass"))

    def _stored(self, form: sp.csr_matrix) -> sp.csr_matrix:
        """The form's data, copied at its nnz, on the pattern that all
        forms on the u-space share: a read-only copy of the first one's."""
        if self._pattern is None:
            self._pattern = (form.indices.copy(), form.indptr.copy())
            for array in self._pattern:
                array.flags.writeable = False
        return sp.csr_matrix((form.data.copy(), *self._pattern), shape=form.shape)

    def aux_space(self, scheme: str) -> FemSpace | None:
        """The auxiliary variable's space; None for the standard scheme."""
        if scheme == "standard":
            return None
        return self.q_space if scheme == "inflow" else self.u_space

    def plan(self, scheme: str) -> SchemePlan:
        """The scheme's plan; the last one built is kept."""
        if self._plan[0] != scheme:
            self._plan = (None, None)
            self._plan = (scheme, _build_plan(self, scheme))
        return self._plan[1]

    def riesz_norm(self, r) -> float:
        """Energy norm sqrt(r . v), K v = r, of the Riesz representer of the
        load r on the free u-dofs; K is the standard plan's matrix at (1, 0, 0)."""
        plan = self.plan("standard")
        if self._riesz is None:
            matrix, _ = _plan_matrices(self, plan, ((1.0, 0.0, 0.0),))
            self._riesz = lu_factor(matrix, ordered=True)
        b = np.zeros(len(plan.order))
        b[plan.u_rows] = r
        v = solve(self._riesz, b)
        # numpy's pairwise sum: a BLAS dot (v @ b) splits it by thread count
        return float(np.sqrt(max(np.sum(v * b), 0.0)))

    def dual_norm(self, q) -> float:
        """Mesh-dependent dual norm sup_v a_par(q, v)/|v| over the u-space,
        |v| the energy norm of K, of the coefficient vector q."""
        q = np.asarray(q, dtype=float)
        return self.riesz_norm((self.P @ q)[self.u_space.free])

    def case_load(self, case) -> np.ndarray:
        """Load vector of the bound case's functional(self.field), keyed on it."""
        if case not in self._loads:
            load = assemble_rhs(self.u_space, case.functional(self.field))
            load.flags.writeable = False
            self._loads[case] = load
        return self._loads[case]

    def exact_values(self, case) -> ExactValues | None:
        """case.u and case.grad_u at the u-space's error quadrature points."""
        if self._exact[0] != case:
            self._exact = (None, None)
            values = exact_values(self.u_space, case)
            for array in values or ():
                array.flags.writeable = False
            self._exact = (case, values)
        return self._exact[1]


def _blocks(spec: ProblemSpec) -> tuple:
    """The coefficients on (K, P, M) of each block uu, uq, qu, qq, named
    by row and column unknowns: "u" the free u-dofs, "q" the free
    auxiliary dofs.  A "u" column also takes in the pinned u-dofs, so a
    block carries its Dirichlet lift."""
    e = spec.eps
    if spec.scheme == "standard":
        return ((1.0, (1.0 - e) / e, 0.0),)
    return ((1.0, 0.0, 0.0), (0.0, 1.0 - e, 0.0), (0.0, 1.0, 0.0),
            (0.0, -e, -spec.sigma))


class SchemePlan(NamedTuple):
    """One scheme's block layout on an operator set.  ``order`` lists the
    unknowns (free u, then free q) in elimination order.  The CSC pattern
    holds the block matrix in that order as its first len(order) columns
    and the lift, the couplings to the pinned u-dofs, as the rest.  Entry
    i of the pattern is entry idx[i] of the blocks build_system forms:
    slot t of block b (in _blocks' order) of the pattern that K, P and M
    share is b nnz(K) + t.  The systems share these arrays, which are
    read-only."""

    order: np.ndarray
    u_rows: np.ndarray     # plan rows of the free u-dofs
    indptr: np.ndarray
    indices: np.ndarray
    idx: np.ndarray        # int32


def _build_plan(ops: SchemeOperators, scheme: str) -> SchemePlan:
    us, qs, nd = ops.u_space, ops.aux_space(scheme), ops.u_space.n_dofs
    # unknown of u-dof d is d, of q-dof d is nd + d; ordered by the
    # nested dissection of their lattice points, u before q at a point
    dofs = us.free if qs is None else np.concatenate([us.free, nd + qs.free])
    rank = np.empty(nd, dtype=np.int64)
    rank[nested_dissection(us)] = np.arange(nd)
    order = np.argsort(2 * rank[dofs % nd] + dofs // nd)
    unknowns = dofs[order]                  # of each plan row
    n, n_c = len(order), len(us.constrained)
    cols = np.full(2 * nd, -1, dtype=np.int32)  # plan column; a free one's row too
    cols[unknowns] = np.arange(n)
    cols[us.constrained] = n + np.arange(n_c)
    # K, P and M share one pattern; slot t in column part c (0 for u, 1 for
    # q) is c nnz + t.  Its rows, widened to every part, with plan columns and
    # no pinned column outside the lift, are gathered in plan-row order; the
    # CSR -> CSC transpose, a counting sort, leaves each column's rows sorted.
    K, parts = ops.K, range(1 if qs is None else 2)
    slots = np.arange(K.nnz, dtype=np.int32)
    wide = sp.hstack([sp.csr_matrix((slots + c * K.nnz, K.indices, K.indptr),
                                    shape=K.shape) for c in parts], format="csr")
    col = cols[wide.indices]
    keep = col >= 0
    indptr = np.concatenate([[0], np.cumsum(keep)])[wide.indptr]
    stencil = sp.csr_matrix((wide.data[keep], col[keep], indptr), shape=(nd, n + n_c))
    pattern = stencil[unknowns % nd].tocsc()
    # a q row moves the entry two blocks on: from uu or uq to qu or qq
    idx = pattern.data + 2 * K.nnz * (unknowns // nd).astype(np.int32)[pattern.indices]
    plan = SchemePlan(order, cols[us.free], pattern.indptr, pattern.indices, idx)
    for array in (plan.order, plan.indptr, plan.indices, plan.idx):
        array.flags.writeable = False       # shared by every system
    return plan


# _plan_matrices forms this many entries at a time: its temporaries stay
# a few hundred KiB beside the data it returns.
_GATHER_CHUNK = 2 ** 13


def _plan_matrices(ops: SchemeOperators, plan: SchemePlan, blocks) -> tuple:
    """The plan's matrix and lift at the coefficients ``blocks`` on (K, P, M).

    Entry i, at slot t of block b, is 0.0 + c_K[b] K_t + c_P[b] P_t +
    c_M[b] M_t summed left to right, a chunk of entries at a time, so no
    table of all blocks is held beside the data.  A form with a zero
    coefficient in every block is not read (M is assembled on first
    read); elsewhere a zero coefficient adds a signed zero, which leaves
    a finite sum as it is, so each entry is bit for bit its block's
    combination without the zero terms."""
    coefficients = np.array(blocks)
    forms = [(coefficients[:, j], getattr(ops, form).data)
             for j, form in enumerate("KPM") if coefficients[:, j].any()]
    data = np.zeros(len(plan.idx))
    for start in range(0, len(data), _GATHER_CHUNK):
        flat = plan.idx[start:start + _GATHER_CHUNK].astype(np.intp)
        b = flat // ops.K.nnz       # np.divmod and int32 indices are slower
        t = flat - b * ops.K.nnz
        chunk = data[start:start + _GATHER_CHUNK]
        for c, values in forms:
            chunk += c[b] * values[t]
    n, p = len(plan.order), plan.indptr
    matrix = sp.csc_matrix((data[:p[n]], plan.indices[:p[n]], p[:n + 1]),
                           shape=(n, n))
    lift = sp.csc_matrix((data[p[n]:], plan.indices[p[n]:], p[n:] - p[n]),
                         shape=(n, len(ops.u_space.constrained)))
    return matrix, lift


@dataclass
class BlockSystem:
    """Stacked linear system over the free dofs of (u, auxiliary), its
    rows and columns in the elimination order ``order``: row i is
    unknown order[i] of (free u, then free auxiliary)."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    n_u: int
    n_q: int
    u_space: FemSpace
    q_space: FemSpace | None
    operators: SchemeOperators
    u_pinned: np.ndarray   # values of u at u_space.constrained
    order: np.ndarray


class SchemeResult(NamedTuple):
    u: np.ndarray          # full-length coefficients, pinned values filled in
    q: np.ndarray          # full-length auxiliary coefficients (empty for standard)
    cond1: float


def build_system(spec: ProblemSpec,
                 operators: SchemeOperators | None = None) -> BlockSystem:
    """Form the block system of one problem instance on its scheme's plan.

    The load vector is that of spec.solution's functional, remembered by the
    operator set for later instances; u is pinned to the case's boundary
    values and the auxiliary variable to zero.  For the standard scheme
    the system is the single primal block.  Operators built for another
    family, field, mesh or domain raise ValueError.
    """
    if spec.case is None:
        raise ValueError("ProblemSpec.case is None: a system needs a case "
                         "for its load and boundary values")
    ops = operators
    if ops is None:
        ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
    elif ops.key != spec.operators_key:
        raise ValueError("the operator set was built for another family, "
                         "field, mesh or domain than the spec's")
    us = ops.u_space
    pts = us.coords[us.constrained]
    gu = np.asarray(spec.solution.boundary_values(pts[:, 0], pts[:, 1]), dtype=float)
    ell = ops.case_load(spec.solution)
    plan = ops.plan(spec.scheme)
    matrix, lift = _plan_matrices(ops, plan, _blocks(spec))
    rhs = np.zeros(len(plan.order))
    rhs[plan.u_rows] = ell[us.free]
    rhs -= lift @ gu
    n_u = len(us.free)
    return BlockSystem(matrix, rhs, n_u, len(rhs) - n_u, us, ops.aux_space(spec.scheme),
                       ops, gu, plan.order)


# Scheme solves keep going until the pivots reach the float64 noise floor:
# the stabilization sweeps deliberately drive sigma into near-singular
# territory, where the primal component is exactly what gets measured.
SCHEME_PIVOT_RTOL = 1e-16


def solve_scheme(system: BlockSystem) -> SchemeResult:
    """Direct solve with refinement and cond_1 estimated on the same
    factorization, both in the system's elimination order.

    Raises SingularMatrixError when the factorization degenerates (for
    example the stabilized scheme at eps = sigma = 0, whose auxiliary
    variable is genuinely non-unique).
    """
    factor = lu_factor(system.matrix, pivot_rtol=SCHEME_PIVOT_RTOL, ordered=True)
    y, cond1 = solve_with_cond1(factor, system.rhs)
    x = np.empty(len(y))
    x[system.order] = y
    u = system.u_space.expand(x[:system.n_u], system.u_pinned)
    if system.q_space is None:
        q = np.empty(0)
    else:
        q = system.q_space.expand(x[system.n_u:], 0.0)
    return SchemeResult(u, q, cond1)
