"""Anisotropy direction, diffusion tensor and manufactured solutions.

The variable field is b = B/|B| with

    B = (alpha*(2y-1)*cos(pi*x) + pi,  pi*alpha*(y^2-y)*sin(pi*x)),

whose field lines are the level sets of t(x, y) = y + alpha*(y^2-y)*cos(pi*x)/pi.
The aligned field is b = e2 on a rectangle.  Manufactured solutions come in
two flavours: a smooth one built from sin(pi*t) plus an eps-proportional
perturbation, and a low-regularity one built from t^2*log(t) whose source
term is square integrable but has no square-integrable gradient.

All evaluators accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from typing import Callable, NamedTuple

import numpy as np

# Keeps B_x > 0 on the unit square so the inflow/outflow split of the
# vertical sides never changes: B_x >= pi - alpha.
ALPHA_MAX = 1.5 * np.pi / 2

FIELD_KINDS = ("variable_alpha", "aligned_e2")
CASE_IDS = ("smooth", "low_reg")


class DegenerateFieldError(ValueError):
    """Raised when |B| vanishes at an evaluation point."""


def _unit_apar(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _identity_aperp(x, y):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


@dataclass(frozen=True)
class FieldSpec:
    """Anisotropy direction plus parallel/perpendicular diffusion coefficients.

    a_par(x, y) is the scalar coefficient along b; a_perp(x, y) the SPD
    2x2 coefficient across it.  Defaults are 1 and the identity, the
    setting used by all built-in studies.
    """

    kind: str = "variable_alpha"
    alpha: float = 0.0
    a_par: Callable = _field(default=_unit_apar)
    a_perp: Callable = _field(default=_identity_aperp)

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if self.kind == "variable_alpha" and self.alpha > ALPHA_MAX:
            raise ValueError(f"alpha={self.alpha} exceeds {ALPHA_MAX:.6f}; "
                             "the boundary split would no longer be fixed")


def eval_B(field: FieldSpec, x, y):
    """Unnormalized direction field, shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    B = np.empty(shape + (2,))
    if field.kind == "aligned_e2":
        B[..., 0] = 0.0
        B[..., 1] = 1.0
    else:
        a = field.alpha
        B[..., 0] = a * (2.0 * y - 1.0) * np.cos(np.pi * x) + np.pi
        B[..., 1] = np.pi * a * (y * y - y) * np.sin(np.pi * x)
    return B


def eval_b(field: FieldSpec, x, y):
    """Unit anisotropy direction b = B/|B|, shape (..., 2)."""
    B = eval_B(field, x, y)
    norm = np.sqrt(B[..., 0] ** 2 + B[..., 1] ** 2)
    if np.any(norm < 1e-14):
        raise DegenerateFieldError("direction field vanishes at an evaluation point")
    return B / norm[..., None]


def eval_A(field: FieldSpec, x, y):
    """Full diffusion tensor A = (b b^T) A_par (b b^T) + (I - b b^T) A_perp (I - b b^T)."""
    b = eval_b(field, x, y)
    apar = np.asarray(field.a_par(x, y), dtype=float)
    aperp = np.asarray(field.a_perp(x, y), dtype=float)
    P = b[..., :, None] * b[..., None, :]
    eye = np.zeros_like(P)
    eye[..., 0, 0] = 1.0
    eye[..., 1, 1] = 1.0
    Q = eye - P
    return apar[..., None, None] * P + Q @ aperp @ Q


class FieldValues(NamedTuple):
    """A field's coefficients at a set of points."""

    b: np.ndarray          # (..., 2)
    A: np.ndarray          # (..., 2, 2)
    a_par: np.ndarray      # (...)


def eval_field(field: FieldSpec, x, y) -> FieldValues:
    """b, A and a_par at the points (x, y)."""
    return FieldValues(eval_b(field, x, y), eval_A(field, x, y),
                       np.asarray(field.a_par(x, y), dtype=float))


def field_line_coordinate(alpha: float, x, y):
    """t(x, y) = y + alpha*(y^2-y)*cos(pi*x)/pi, constant along the field lines."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return y + (alpha / np.pi) * (y * y - y) * np.cos(np.pi * x)


def _grad_t(alpha: float, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tx = -alpha * (y * y - y) * np.sin(np.pi * x)
    ty = 1.0 + (alpha / np.pi) * (2.0 * y - 1.0) * np.cos(np.pi * x)
    return tx, ty


def _stack(gx, gy):
    out = np.empty(np.broadcast_shapes(np.shape(gx), np.shape(gy)) + (2,))
    out[..., 0] = gx
    out[..., 1] = gy
    return out


def _t2logt(t):
    """t^2*log(t) with the removable value 0 at t = 0; rejects t < 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12):
        raise ValueError("field-line coordinate is negative; the low-regularity "
                         "profile is only defined for t >= 0")
    t = np.maximum(t, 0.0)
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, t * t * np.log(safe), 0.0)


def _d_t2logt(t):
    """Derivative 2*t*log(t) + t, extended by 0 at t = 0."""
    t = np.asarray(t, dtype=float)
    t = np.maximum(t, 0.0)
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, 2.0 * t * np.log(safe) + t, 0.0)


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form exact solution for the variable field with parameter alpha.

    Both flavours share the structure u = u0 + eps*w with perturbation
    w = cos(2*pi*x)*sin(pi*t) and auxiliary variable w - u0|_fieldline =
    (cos(2*pi*x) - 1)*sin(pi*t), which vanishes on the inflow side x = 0.
    They differ in the limit part u0, constant along the field lines:

    "smooth": u0 = sin(pi*t), infinitely smooth, zero trace on the
    tangential boundary.

    "low_reg": u0 = t^2*log(t) - 1.5 + 7.5*t, whose source term is square
    integrable but not square-integrably differentiable.  Its trace on the
    tangential boundary is a nonzero constant per side, so solves carry
    inhomogeneous Dirichlet data.

    As a problem case it supplies u and grad_u (the error reference), the
    load functional and the Dirichlet values of the instance.
    """

    case_id: str = "smooth"
    alpha: float = 0.0
    eps: float = 1.0

    def __post_init__(self):
        if self.case_id not in CASE_IDS:
            raise ValueError(f"unknown case {self.case_id!r}")
        if not 0.0 <= self.eps < np.inf:
            raise ValueError("eps must be finite and nonnegative")
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    # -- limit solution u0 (constant along field lines), perturbation w --

    def u_limit(self, x, y):
        return self._values(x, y)[0]

    def perturbation(self, x, y):
        return self._values(x, y)[1]

    def grad_u_limit(self, x, y):
        return self._gradients(x, y)[0]

    def grad_perturbation(self, x, y):
        return self._gradients(x, y)[1]

    def _values(self, x, y):
        """u0 and w at (x, y), from one evaluation of t."""
        t = field_line_coordinate(self.alpha, x, y)
        w = np.cos(2.0 * np.pi * np.asarray(x, dtype=float)) * np.sin(np.pi * t)
        u0 = np.sin(np.pi * t) if self.case_id == "smooth" else _t2logt(t) - 1.5 + 7.5 * t
        return u0, w

    def _gradients(self, x, y):
        """grad u0 and grad w at (x, y), from one evaluation of t and grad t."""
        x = np.asarray(x, dtype=float)
        t = field_line_coordinate(self.alpha, x, y)
        tx, ty = _grad_t(self.alpha, x, y)
        dt = np.pi * np.cos(np.pi * t) if self.case_id == "smooth" else _d_t2logt(t) + 7.5
        c2, s2 = np.cos(2.0 * np.pi * x), np.sin(2.0 * np.pi * x)
        s, c = np.sin(np.pi * t), np.cos(np.pi * t)
        return (_stack(dt * tx, dt * ty),
                _stack(-2.0 * np.pi * s2 * s + c2 * np.pi * c * tx,
                       c2 * np.pi * c * ty))

    # -- exact solution of the eps-problem ------------------------------

    def u(self, x, y):
        u0, w = self._values(x, y)
        return u0 + self.eps * w

    def grad_u(self, x, y):
        g0, gw = self._gradients(x, y)
        return g0 + self.eps * gw

    # -- problem data: load functional and Dirichlet values --------------

    def functional(self, field: FieldSpec) -> LinearFunctional:
        return rhs_functional(self, field)

    def boundary_values(self, x, y):
        """Dirichlet data on the tangential boundary: the trace of u_limit
        for low_reg; zero for smooth, where sin(pi*t) vanishes (evaluated,
        it leaves round-off such as 1.2e-16 at y = 1)."""
        if self.case_id == "low_reg":
            return self.u_limit(x, y)
        return np.zeros(np.shape(x))

    # -- auxiliary variable ----------------------------------------------

    def q(self, x, y):
        """Auxiliary variable; equals (cos(2*pi*x) - 1)*sin(pi*t), zero at x=0."""
        x = np.asarray(x, dtype=float)
        t = field_line_coordinate(self.alpha, x, y)
        return (np.cos(2.0 * np.pi * x) - 1.0) * np.sin(np.pi * t)


class LinearFunctional:
    """Right-hand side in the generic form  l(v) = int F.grad(v) + f0*v.

    ``flux`` maps (x, y, field_values) to the vector F with shape
    (..., 2), where field_values(field) gives a field's FieldValues at
    (x, y); ``source`` maps (x, y) to f0.  Either may be None (meaning
    zero).
    """

    def __init__(self, flux=None, source=None):
        self.flux = flux
        self.source = source


def source_functional(f) -> LinearFunctional:
    """Functional l(v) = int f*v for a plain source term f(x, y)."""
    return LinearFunctional(source=f)


def rhs_functional(case: ManufacturedCase, field: FieldSpec) -> LinearFunctional:
    """Load functional of the weak problem whose exact solution is ``case``,
    at the case's own eps, so the two cannot disagree.

    Built variationally from the analytic gradients:

        l(v) = (1 - eps) * apar(b.grad w)(b.grad v) + (A grad u_eps).grad v

    which equals (f, v) for the manufactured source, because the parallel
    gradient of the exact solution is exactly eps times that of the
    perturbation.  No 1/eps factor ever appears, so the functional is
    stable down to eps = 0.
    """
    def flux(x, y, field_values: Callable[[FieldSpec], FieldValues]):
        b, A, apar = field_values(field)
        g0, gw = case._gradients(x, y)
        gu = g0 + case.eps * gw         # case.grad_u, from the one evaluation
        bgw = b[..., 0] * gw[..., 0] + b[..., 1] * gw[..., 1]
        par = ((1.0 - case.eps) * apar * bgw)[..., None] * b
        return par + (A @ gu[..., None])[..., 0]
    return LinearFunctional(flux=flux)

