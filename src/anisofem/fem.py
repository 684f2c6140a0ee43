"""Finite element spaces, quadrature, assembly and norm evaluation.

Supports Q1/Q2 on structured rectangle meshes and P1/P2 on the structured
triangulations of :mod:`anisofem.geometry`.  All degrees of freedom of a
space live on a (k*nx+1) x (k*ny+1) point lattice (for P2 the edge
midpoints fill the odd lattice positions), numbered lexicographically with
x fastest, which keeps dof numbering bit-stable across runs.

The per-point kernels (field values, exact values, the geometry tensors
of the forms and the load integrands) run over blocks of elements and
write into full-size arrays, so their temporaries stay bounded whatever
the mesh; each product that mixes elements (element matrices and load
vectors from those arrays) and each error norm is one whole-array step.
No quadrature weight is cached: each kernel forms the weights times
detJ of its block, or of the whole mesh for the error norms.
Constrained dofs are not touched at assembly time, elimination happens
when systems are built.  All forms on a space share one CSR pattern, its
element stencil: cancelled entries stay.  scipy's COO -> CSR conversion
leaves a form's arrays at the COO size, so an operator set stores each
form's data at its nnz on one read-only copy of that pattern.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh, BoundaryTags, boundary_edges
from .fields import FieldSpec, FieldValues, LinearFunctional, eval_field

FAMILIES = {"q1": ("quad", 1), "q2": ("quad", 2), "p1": ("triangle", 1),
            "p2": ("triangle", 2)}

FORM_KINDS = ("a_full", "a_par", "mass")

# Default rules: tensor Gauss 4x4 on quads (one order above what constant
# coefficients need, absorbing the variable direction field), 6-point
# degree-4 rule on triangles.  Error norms use one order more.
_QUAD_DEFAULT_PTS = 4
_QUAD_ERROR_PTS = 5

# The per-point kernels run over blocks of this many elements: 2^15 points
# of the largest rule (5x5 Gauss on quads), a few MiB of temporaries.
BLOCK_ELEMENTS = 2 ** 15 // _QUAD_ERROR_PTS ** 2


def gauss_tensor(p: int):
    """Tensor Gauss-Legendre rule on [-1,1]^2: points (Q,2), weights (Q,)."""
    x, w = np.polynomial.legendre.leggauss(p)
    X, Y = np.meshgrid(x, x, indexing="xy")
    W = np.outer(w, w)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


def triangle_rule(degree: int):
    """Symmetric rules on the reference triangle (0,0)-(1,0)-(0,1).

    Weights sum to the reference area 1/2.
    """
    if degree <= 4:
        a1, w1 = 0.445948490915965, 0.223381589678011
        a2, w2 = 0.091576213509771, 0.109951743655322
        pts = [(a1, a1), (1 - 2 * a1, a1), (a1, 1 - 2 * a1),
               (a2, a2), (1 - 2 * a2, a2), (a2, 1 - 2 * a2)]
        wts = [w1] * 3 + [w2] * 3
    else:
        # 7-point degree-5 rule
        a1, w1 = 0.470142064105115, 0.132394152788506
        a2, w2 = 0.101286507323456, 0.125939180544827
        pts = [(1 / 3, 1 / 3),
               (a1, a1), (1 - 2 * a1, a1), (a1, 1 - 2 * a1),
               (a2, a2), (1 - 2 * a2, a2), (a2, 1 - 2 * a2)]
        wts = [9 / 40] + [w1] * 3 + [w2] * 3
    return np.array(pts), 0.5 * np.array(wts)


def _lagrange_1d(k: int, x):
    """Values and derivatives of the 1D Lagrange basis on [-1,1] nodes."""
    x = np.asarray(x, dtype=float)
    if k == 1:
        vals = np.stack([0.5 * (1 - x), 0.5 * (1 + x)])
        ders = np.stack([np.full_like(x, -0.5), np.full_like(x, 0.5)])
    elif k == 2:
        vals = np.stack([0.5 * x * (x - 1), 1 - x * x, 0.5 * x * (x + 1)])
        ders = np.stack([x - 0.5, -2 * x, x + 0.5])
    else:
        raise ValueError("only degrees 1 and 2 are supported")
    return vals, ders


def shape_functions(family: str, points):
    """Basis values N (nd, Q) and reference gradients dN (nd, Q, 2)."""
    kind, k = FAMILIES[family]
    pts = np.asarray(points, dtype=float)
    if kind == "quad":
        vx, dx = _lagrange_1d(k, pts[:, 0])
        vy, dy = _lagrange_1d(k, pts[:, 1])
        nd = (k + 1) ** 2
        N = np.empty((nd, len(pts)))
        dN = np.empty((nd, len(pts), 2))
        for b in range(k + 1):
            for a in range(k + 1):
                l = a + b * (k + 1)
                N[l] = vx[a] * vy[b]
                dN[l, :, 0] = dx[a] * vy[b]
                dN[l, :, 1] = vx[a] * dy[b]
        return N, dN
    xi, eta = pts[:, 0], pts[:, 1]
    lam = np.stack([1 - xi - eta, xi, eta])
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if k == 1:
        N = lam
        dN = np.repeat(dlam[:, None, :], len(pts), axis=1)
        return N, dN
    N = np.empty((6, len(pts)))
    dN = np.empty((6, len(pts), 2))
    for i in range(3):
        N[i] = lam[i] * (2 * lam[i] - 1)
        dN[i] = (4 * lam[i] - 1)[:, None] * dlam[i]
    for e, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        N[3 + e] = 4 * lam[i] * lam[j]
        dN[3 + e] = 4 * (lam[i][:, None] * dlam[j] + lam[j][:, None] * dlam[i])
    return N, dN


def reference_rule(family: str, purpose: str):
    kind, _ = FAMILIES[family]
    if kind == "quad":
        return gauss_tensor(_QUAD_ERROR_PTS if purpose == "error" else _QUAD_DEFAULT_PTS)
    return triangle_rule(5 if purpose == "error" else 4)


class FemSpace:
    """Lagrange space of degree 1 or 2 with optional boundary constraints.

    ``constrained`` holds the dof indices pinned by the requested boundary
    tags.  The pinned values are not part of the space: callers pass them
    to :meth:`expand`, so one space serves any Dirichlet data.
    """

    def __init__(self, mesh: Mesh, family: str,
                 dirichlet_tags=frozenset(), boundary_tags: BoundaryTags | None = None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        kind, k = FAMILIES[family]
        if kind != mesh.element_kind:
            raise ValueError(f"family {family} needs a {kind} mesh, "
                             f"got {mesh.element_kind}")
        self.mesh = mesh
        self.family = family
        self.degree = k
        self.mx = k * mesh.nx + 1
        self.my = k * mesh.ny + 1
        self.n_dofs = self.mx * self.my

        x = np.linspace(0.0, mesh.Lx, self.mx)
        y = np.linspace(0.0, mesh.Ly, self.my)
        X, Y = np.meshgrid(x, y, indexing="xy")
        self.coords = np.column_stack([X.ravel(), Y.ravel()])

        self.element_dofs = self._build_element_dofs()
        self.n_local = self.element_dofs.shape[1]
        self._tables: dict = {}     # purpose, "geometry" -> dicts; field -> values
        self._constrain(dirichlet_tags, boundary_tags)

    def _constrain(self, dirichlet_tags, boundary_tags):
        dirichlet_tags = frozenset(dirichlet_tags)
        if dirichlet_tags and boundary_tags is None:
            raise ValueError("boundary tags are required to constrain dofs")
        self.constrained = self._constrained_dofs(dirichlet_tags, boundary_tags)
        mask = np.zeros(self.n_dofs, dtype=bool)
        mask[self.constrained] = True
        self.constrained_mask = mask
        self.free = np.flatnonzero(~mask)

    def with_constraints(self, dirichlet_tags=frozenset(),
                         boundary_tags: BoundaryTags | None = None) -> FemSpace:
        """The same space with another constrained set.

        Mesh, dof layout and the quadrature-table cache are shared with
        this space, so each rule's tables and each field's values are
        built once for both.
        """
        other = copy.copy(self)
        other._constrain(dirichlet_tags, boundary_tags)
        return other

    # -- dof layout ------------------------------------------------------

    def _build_element_dofs(self):
        mesh, k, mx = self.mesh, self.degree, self.mx
        i, j = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny), indexing="xy")
        i, j = i.ravel(), j.ravel()
        base = (k * j) * mx + k * i

        def lat(a, b):
            return base + b * mx + a

        if mesh.element_kind == "quad":
            cols = [lat(a, b) for b in range(k + 1) for a in range(k + 1)]
            return np.column_stack(cols).astype(np.int64)
        if k == 1:
            lower = np.column_stack([lat(0, 0), lat(1, 0), lat(1, 1)])
            upper = np.column_stack([lat(0, 0), lat(1, 1), lat(0, 1)])
        else:
            lower = np.column_stack([lat(0, 0), lat(2, 0), lat(2, 2),
                                     lat(1, 0), lat(2, 1), lat(1, 1)])
            upper = np.column_stack([lat(0, 0), lat(2, 2), lat(0, 2),
                                     lat(1, 1), lat(1, 2), lat(0, 1)])
        out = np.empty((2 * mesh.nx * mesh.ny, lower.shape[1]), dtype=np.int64)
        out[0::2] = lower
        out[1::2] = upper
        return out

    def _constrained_dofs(self, tags, boundary_tags):
        """Lattice dofs on the boundary edges whose tag is in ``tags``."""
        if not tags:
            return np.empty(0, dtype=np.int64)
        edges = boundary_edges(self.mesh)
        pick = np.isin(boundary_tags.edge_tags, list(tags))
        side, k, mx = edges.side[pick], self.degree, self.mx
        # an edge's k + 1 dofs start at its side's offset and step along it
        start = np.select([side == "right", side == "top"], [mx - 1, (self.my - 1) * mx])
        step = np.where((side == "bottom") | (side == "top"), 1, mx)
        along = k * edges.index[pick, None] + np.arange(k + 1)
        return np.unique(start[:, None] + along * step[:, None])

    # -- vectors ----------------------------------------------------------

    def interpolate(self, fn):
        """Nodal interpolant: fn evaluated at the dof lattice."""
        return np.asarray(fn(self.coords[:, 0], self.coords[:, 1]), dtype=float)

    def expand(self, reduced, pinned):
        """Free-dof vector -> full-length vector with the pinned values
        (one per constrained dof, or a scalar) filled in."""
        full = np.empty(self.n_dofs)
        full[self.free] = reduced
        full[self.constrained] = pinned
        return full

    # -- geometric/basis tables -------------------------------------------

    def tables(self, purpose: str = "default") -> dict:
        """Cached per-rule tables: reference N (nd,Q), dN (nd,Q,2), pts (Q,2),
        wts (Q,), and the element maps J, invJ (E,2,2), detJ (E,) and
        origin (E,2) that all rules share.  Kernels map dN by invJ and
        form the weights wts detJ (``weights``): no (E,Q) array is cached
        here.  The forms' shared pattern is not cached either; an operator
        set keeps it."""
        if purpose in self._tables:
            return self._tables[purpose]
        if "geometry" not in self._tables:
            mesh = self.mesh
            corners = mesh.nodes[mesh.elements]          # (E, nv, 2)
            J = np.empty((mesh.n_elements, 2, 2))
            if mesh.element_kind == "quad":
                # bilinear map on rectangles is affine
                J[:, :, 0] = 0.5 * (corners[:, 1] - corners[:, 0])
                J[:, :, 1] = 0.5 * (corners[:, 3] - corners[:, 0])
                origin = 0.5 * (corners[:, 0] + corners[:, 2])
            else:
                J[:, :, 0] = corners[:, 1] - corners[:, 0]
                J[:, :, 1] = corners[:, 2] - corners[:, 0]
                origin = corners[:, 0]
            detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            if np.any(detJ <= 0):
                raise ValueError("non-positive element Jacobian")
            invJ = np.empty_like(J)
            invJ[:, 0, 0] = J[:, 1, 1] / detJ
            invJ[:, 0, 1] = -J[:, 0, 1] / detJ
            invJ[:, 1, 0] = -J[:, 1, 0] / detJ
            invJ[:, 1, 1] = J[:, 0, 0] / detJ
            self._tables["geometry"] = dict(J=J, invJ=invJ, origin=origin, detJ=detJ)
        geo = self._tables["geometry"]
        pts, wts = reference_rule(self.family, purpose)
        N, dN = shape_functions(self.family, pts)
        self._tables[purpose] = {"N": N, "dN": dN, "pts": pts, "wts": wts, **geo}
        return self._tables[purpose]

    def weights(self, purpose: str = "default", elements=slice(None)) -> np.ndarray:
        """The rule's weights times detJ (e,Q) on the given elements (all
        of them by default), formed on each call: one product per entry,
        so the same weights bit for bit, whatever the block."""
        tab = self.tables(purpose)
        return tab["wts"][None, :] * tab["detJ"][elements, None]

    def blocks(self):
        """Slices of the element axis, BLOCK_ELEMENTS elements each, in
        order: the per-point kernels run one block at a time."""
        for start in range(0, self.mesh.n_elements, BLOCK_ELEMENTS):
            yield slice(start, start + BLOCK_ELEMENTS)

    def points(self, purpose: str = "default", elements=slice(None)) -> np.ndarray:
        """The rule's points origin + J.pts (e,Q,2) on the given elements
        (all of them by default; a kernel passes its block), formed on each
        call with each sum written out as its two terms: the products and
        additions of einsum's generic loop, so the same points bit for bit,
        whatever the block."""
        J, pts, origin = map(self.tables(purpose).get, ("J", "pts", "origin"))
        J, origin = J[elements], origin[elements]
        return np.stack([origin[:, None, i] + (J[:, None, i, 0] * pts[:, 0]
                                               + J[:, None, i, 1] * pts[:, 1])
                         for i in (0, 1)], axis=-1)

    def field_values(self, field: FieldSpec) -> FieldValues:
        """Cached, read-only b, A and a_par of the field at the default
        quadrature points, each (E, Q, ...): the forms and the loads on
        this space read the same values.  They are evaluated block by
        block into full-size arrays."""
        if field not in self._tables:
            shape = (self.mesh.n_elements, len(self.tables()["pts"]))
            values = FieldValues(np.empty(shape + (2,)), np.empty(shape + (2, 2)),
                                 np.empty(shape))
            for s in self.blocks():
                xq = self.points(elements=s)
                for array, block in zip(values,
                                        eval_field(field, xq[..., 0], xq[..., 1])):
                    array[s] = block
            for array in values:
                array.flags.writeable = False
            self._tables[field] = values
        return self._tables[field]


# Lattice regions at most this many points on each side are not split.
ND_LEAF = 8


def nd_blocks(mx: int, my: int, k: int):
    """Nested dissection of an mx x my dof lattice, as (points, is_separator)
    blocks in elimination order; a point is its index j*mx + i.

    A region is cut at the lattice line nearest its middle that is a
    multiple of k, across its longer side: that line is a union of element
    edges (triangle diagonals stay inside their cell), so no element
    couples the two halves.  Both halves come first, then the separator.
    A side with no such line strictly inside it is not cut; a region
    that cannot be cut at all is a leaf, whatever its size.  Leaves are
    ordered lexicographically, x fastest.
    """
    def cut(lo, hi):
        s = (lo + hi - 1) // 2 // k * k
        return s if lo < s < hi - 1 else None

    def dissect(i0, i1, j0, j1):
        si, sj = cut(i0, i1), cut(j0, j1)
        small = i1 - i0 <= ND_LEAF and j1 - j0 <= ND_LEAF
        if small or (si is None and sj is None):
            yield (np.arange(j0, j1)[:, None] * mx + np.arange(i0, i1)).ravel(), False
        elif sj is None or (si is not None and i1 - i0 >= j1 - j0):
            yield from dissect(i0, si, j0, j1)
            yield from dissect(si + 1, i1, j0, j1)
            yield np.arange(j0, j1) * mx + si, True
        else:
            yield from dissect(i0, i1, j0, sj)
            yield from dissect(i0, i1, sj + 1, j1)
            yield sj * mx + np.arange(i0, i1), True

    yield from dissect(0, mx, 0, my)


def nested_dissection(space: FemSpace) -> np.ndarray:
    """The space's lattice points in nested-dissection order."""
    return np.concatenate([points for points, _ in
                           nd_blocks(space.mx, space.my, space.degree)])


def apply_map(x, m):
    """x @ m[e] for rows x (E, ..., 2) and per-element 2x2 maps m (E, 2, 2),
    each sum written out as its two terms over whole component planes."""
    x = np.ascontiguousarray(x)     # a transposed view would loop over pairs
    m = m.reshape(m.shape[:1] + (1,) * (x.ndim - 2) + (2, 2))
    return np.stack([x[..., 0] * m[..., 0, i] + x[..., 1] * m[..., 1, i]
                     for i in (0, 1)], axis=-1)


def assemble(space: FemSpace, kind: str,
             field: FieldSpec | None = None) -> sp.csr_matrix:
    """Assemble a bilinear form over the full (unconstrained) dof lattice.

    kind: ``a_full`` is int A grad(u).grad(v); ``a_par`` is
    int A_par (b.grad u)(b.grad v); ``mass`` the L2 product.  The
    space's constrained set is ignored.  Each element matrix is one
    product of a per-point geometry tensor (wdet J^-1 A J^-T, wdet a_par
    (J^-1 b)(J^-1 b)^T or wdet, wdet the weights) with a reference tensor
    (dN dN^T, or N N^T for the mass).  Cancelled entries stay as explicit
    zeros, so every form on the space has one pattern.
    """
    if kind not in FORM_KINDS:
        raise ValueError(f"unknown form kind {kind!r}")
    if kind != "mass" and field is None:
        raise ValueError(f"form {kind!r} needs a field")
    tab = space.tables()
    N, dN = tab["N"], tab["dN"]
    if kind == "mass":
        geo, ref = space.weights(), np.einsum("lq,mq->qlm", N, N)
    else:
        inv_t = tab["invJ"].transpose(0, 2, 1)
        bq, A, apar = space.field_values(field)
        geo = np.empty(apar.shape + (2, 2))
        for s in space.blocks():
            wdet = space.weights(elements=s)
            if kind == "a_full":
                # J^-1 A J^-T as (A J^-T)^T J^-T, A being symmetric
                AJ = apply_map(A[s], inv_t[s])
                geo[s] = apply_map(AJ.swapaxes(-1, -2), inv_t[s]) * wdet[..., None, None]
            else:
                c = apply_map(bq[s], inv_t[s])                       # J^-1 b
                geo[s] = ((wdet * apar[s])[..., None] * c)[..., :, None] @ c[..., None, :]
        ref = np.einsum("lqj,mqk->qjklm", dN, dN)
    Ke = geo.reshape(len(geo), -1) @ ref.reshape(-1, space.n_local ** 2)
    ed = space.element_dofs
    rows = np.repeat(ed, space.n_local, axis=1).ravel()
    cols = np.tile(ed, (1, space.n_local)).ravel()
    return sp.coo_matrix((Ke.ravel(), (rows, cols)),
                         shape=(space.n_dofs, space.n_dofs)).tocsr()


def assemble_rhs(space: FemSpace, functional: LinearFunctional) -> np.ndarray:
    """Load vector b_i = l(phi_i) using the same rule and, for the flux,
    the same field values as assemble.  The flux and the source are
    evaluated block by block; the flux's field_values argument gives the
    block's slices of the cached field values."""
    tab = space.tables()
    N, dN = tab["N"], tab["dN"]
    inv_t = tab["invJ"].transpose(0, 2, 1)
    flux, source = functional.flux, functional.source
    shape = (space.mesh.n_elements, len(tab["pts"]))
    H = None if flux is None else np.empty(shape + (2,))    # wdet J^-1 F
    S = None if source is None else np.empty(shape)         # wdet f0
    for s in space.blocks():
        xq, wdet = space.points(elements=s), space.weights(elements=s)
        if flux is not None:
            def field_values(field, s=s):
                return FieldValues._make(v[s] for v in space.field_values(field))
            F = np.asarray(flux(xq[..., 0], xq[..., 1], field_values), dtype=float)
            H[s] = apply_map(F, inv_t[s]) * wdet[..., None]
        if source is not None:
            S[s] = wdet * np.asarray(source(xq[..., 0], xq[..., 1]), dtype=float)
    re = np.zeros((space.mesh.n_elements, space.n_local))
    if H is not None:
        re += H.reshape(len(H), -1) @ dN.transpose(1, 2, 0).reshape(-1, space.n_local)
    if S is not None:
        re += S @ N.T
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.element_dofs.ravel(), re.ravel())
    return out


# -- norms and errors -----------------------------------------------------

class ExactValues(NamedTuple):
    """An error reference evaluated at a space's error quadrature points."""

    u: np.ndarray          # (E, Q)
    grad_u: np.ndarray     # (E, Q, 2)


def exact_values(space: FemSpace, case) -> ExactValues | None:
    """case.u and case.grad_u at the error quadrature points of the space,
    evaluated block by block into full-size arrays; None (zero) stays None."""
    if case is None:
        return None
    shape = (space.mesh.n_elements, len(space.tables("error")["pts"]))
    values = ExactValues(np.empty(shape), np.empty(shape + (2,)))
    for s in space.blocks():
        xq = space.points("error", s)
        values.u[s] = case.u(xq[..., 0], xq[..., 1])
        values.grad_u[s] = case.grad_u(xq[..., 0], xq[..., 1])
    return values


def error_components(space: FemSpace, coefficients, case=None):
    """Squared L2/H1-seminorm of (u_h - exact) and of u_h itself.

    ``case`` is None (zero), any object with u and grad_u, or its
    ExactValues for this space.  Integrated with a rule one order above
    the assembly rule so the quadrature error stays below the
    discretization error being measured.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (space.n_dofs,):
        raise ValueError("coefficient vector does not match the space")
    if not isinstance(case, ExactValues):
        case = exact_values(space, case)
    tab = space.tables("error")
    N, dN, wdet = tab["N"], tab["dN"], space.weights("error")
    ce = coefficients[space.element_dofs]                 # (E, nd)
    uh = ce @ N
    guh = apply_map((ce @ dN.reshape(len(dN), -1)).reshape(uh.shape + (2,)), tab["invJ"])
    uh_l2_sq = float(np.sum(wdet * uh * uh))
    uh_h1_sq = float(np.sum(wdet[..., None] * guh * guh))
    if case is None:            # the error is u_h itself
        return uh_l2_sq, uh_h1_sq, uh_l2_sq, uh_h1_sq
    du = uh - case.u
    dg = guh - case.grad_u
    err_l2_sq = float(np.sum(wdet * du * du))
    err_h1_sq = float(np.sum(wdet[..., None] * dg * dg))
    return err_l2_sq, err_h1_sq, uh_l2_sq, uh_h1_sq


def error_norms(space: FemSpace, coefficients, case):
    """(l2, h1, l2_rel, h1_rel): the L2 and full H1 norms of u_h - exact,
    and each divided by the same norm of u_h: inf when that norm is zero
    and the error is not, nan when both are zero."""
    e2, eh2, u2, uh2 = error_components(space, coefficients, case)
    l2 = np.sqrt(e2)
    h1 = np.sqrt(e2 + eh2)
    with np.errstate(invalid="ignore", divide="ignore"):
        return l2, h1, l2 / np.sqrt(u2), h1 / np.sqrt(u2 + uh2)


def parallel_seminorm(q_coefficients, a_par_matrix) -> float:
    """|q|-seminorm induced by the parallel form, sqrt(q^T P q)."""
    q = np.asarray(q_coefficients, dtype=float)
    # numpy's pairwise sum: a BLAS dot splits it by thread count
    return float(np.sqrt(max(np.sum(q * (a_par_matrix @ q)), 0.0)))
