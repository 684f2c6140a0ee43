"""Closed-form Fourier solver for the aligned geometry on (0, pi)^2.

With b = e2, unit coefficients, and f = sum f_kl sin(kx) cos(ly), the
stabilized problem decouples mode by mode:

    u_kl  = f_kl / (k^2 + l^2 + (1-eps) l^4 / (eps l^2 + sigma))
    xi_kl = l^2 f_kl / ((eps l^2 + sigma)(k^2 + l^2) + (1-eps) l^4),  l >= 1.

The inflow auxiliary variable is recovered from the sigma = 0 solution by
subtracting its bottom trace: q(x, y) = xi(x, y) - xi(x, 0).  Mode lists
are always finite; this module is an independent oracle for the finite
element solver, not a spectral method in its own right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import LinearFunctional, source_functional


class DegenerateSpectralProblem(ValueError):
    """eps = sigma = 0 with an l >= 1 mode present: no closed form."""


@dataclass(frozen=True)
class FourierRhs:
    """Finite list of modes (k >= 1, l >= 0) with coefficients f_kl."""

    k: np.ndarray
    l: np.ndarray
    coeff: np.ndarray

    @classmethod
    def from_modes(cls, modes) -> "FourierRhs":
        """modes: iterable of (k, l, f_kl) triples, k and l 64-bit integers
        and f_kl finite; any other triple raises ValueError."""
        if len(modes) == 0:
            raise ValueError("need at least one mode")
        k, l, c = (np.array([float(m[i]) for m in modes]) for i in range(3))
        if not np.all(np.isfinite(c)):
            raise ValueError("mode coefficients must be finite")
        kl = np.concatenate([k, l])
        if not (np.all(np.abs(kl) < 2.0 ** 63) and np.all(kl == np.round(kl))):
            raise ValueError("mode indices k and l must be 64-bit integers")
        if np.any(k < 1) or np.any(l < 0):
            raise ValueError("modes need k >= 1 and l >= 0")
        return cls(k.astype(np.int64), l.astype(np.int64), c)

    def __call__(self, x, y):
        """Evaluate f(x, y); usable directly as a source term."""
        return _mode_sum(self.coeff, self.k, self.l, x, y)


def _mode_sum(coeff, k, l, x, y, fx=np.sin, fy=np.cos):
    """sum over the modes of coeff * fx(k x) * fy(l y), pointwise."""
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    return np.sum(coeff * fx(k * x) * fy(l * y), axis=-1)


# eq=False: two solutions compare by identity, since comparing their
# coefficient arrays with == is ambiguous for multi-mode solutions
@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Mode coefficients of the primal and auxiliary solutions.

    As a problem case on the aligned field over (0, pi)^2 it loads the
    source f, pins u to zero (sin(kx) vanishes on the tangential sides
    x = 0 and x = pi) and measures errors against the primal series.
    """

    rhs: FourierRhs
    eps: float
    sigma: float
    u_coeff: np.ndarray
    xi_coeff: np.ndarray   # zero for l = 0 modes

    def u(self, x, y):
        return _mode_sum(self.u_coeff, self.rhs.k, self.rhs.l, x, y)

    def grad_u(self, x, y):
        k, l, c = self.rhs.k, self.rhs.l, self.u_coeff
        return np.stack([_mode_sum(c * k, k, l, x, y, np.cos, np.cos),
                         _mode_sum(-c * l, k, l, x, y, np.sin, np.sin)], axis=-1)

    def functional(self, field, eps) -> LinearFunctional:
        """The source f; the mode formulas already fixed field and eps."""
        return source_functional(self.rhs)

    def boundary_values(self, x, y):
        return np.zeros(np.shape(x))


def spectral_solve(f: FourierRhs, eps: float, sigma: float) -> SpectralSolution:
    """Coefficient-wise application of the closed-form mode formulas."""
    if eps < 0 or sigma < 0:
        raise ValueError("eps and sigma must be nonnegative")
    k, l, c = f.k.astype(float), f.l.astype(float), f.coeff
    if eps == 0.0 and sigma == 0.0 and np.any(l >= 1):
        raise DegenerateSpectralProblem(
            "eps = sigma = 0 only admits l = 0 modes in closed form")
    # flat modes (l = 0) never see the anisotropic term; mask them out of
    # the divisions instead of letting 0/0 propagate
    denom_aniso = np.where(l >= 1, eps * l * l + sigma, 1.0)
    extra = np.where(l >= 1, (1.0 - eps) * l ** 4 / denom_aniso, 0.0)
    u = c / (k * k + l * l + extra)
    denom_xi = np.where(l >= 1,
                        denom_aniso * (k * k + l * l) + (1.0 - eps) * l ** 4, 1.0)
    xi = np.where(l >= 1, l * l * c / denom_xi, 0.0)
    return SpectralSolution(f, eps, sigma, u, xi)


_SERIES_WHICH = ("u", "xi", "q")


def eval_series(sol: SpectralSolution, which: str, x, y):
    """Pointwise sum of the mode series.

    ``q`` needs sigma = 0 and eps > 0 and equals xi(x, y) - xi(x, 0).
    """
    which = which.lower()
    if which not in _SERIES_WHICH:
        raise ValueError(f"which must be one of {_SERIES_WHICH}")
    if which == "u":
        return sol.u(x, y)
    k, l = sol.rhs.k, sol.rhs.l
    if which == "xi":
        return _mode_sum(sol.xi_coeff, k, l, x, y)
    if sol.sigma != 0.0 or sol.eps <= 0.0:
        raise ValueError("the inflow auxiliary series needs sigma = 0 and eps > 0")
    return _mode_sum(sol.xi_coeff, k, l, x, y, fy=lambda t: np.cos(t) - 1.0)


def sobolev_seminorm(modes, s: float) -> float:
    """Representative of the order-s seminorm: (sum (k^2+l^2)^s c^2)^(1/2).

    The equivalence constant of the underlying norm is taken as 1; only
    ratios and uniform bounds are ever consumed.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if isinstance(modes, FourierRhs):
        k, l, c = modes.k.astype(float), modes.l.astype(float), modes.coeff
    else:
        arr = np.asarray(list(modes), dtype=float)
        k, l, c = arr[:, 0], arr[:, 1], arr[:, 2]
    return float(np.sqrt(np.sum((k * k + l * l) ** s * c * c)))
