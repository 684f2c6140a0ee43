"""Assemble and solve one instance of each formulation at strong anisotropy.

The standard single-field discretization, the inflow-pinned reformulation
and the stabilized one all see the same manufactured problem; at
eps = 1e-10 the standard matrix is miserably conditioned while both
reformulations stay accurate.
"""

from anisofem import FieldSpec, ProblemSpec
from anisofem.studies import run_instance

eps, alpha, n = 1e-10, 2.0, 20
field = FieldSpec("variable_alpha", alpha)

print(f"eps = {eps}, alpha = {alpha}, {n}x{n} cells, Q2 elements\n")
print(f"{'scheme':12s} {'L2 rel':>10s} {'H1 rel':>10s} {'cond1':>10s} {'time':>7s}")
for scheme, sigma in (("standard", 0.0), ("inflow", 0.0), ("stabilized", 0.025 ** 3)):
    # the case is a recipe: the spec binds "smooth" to its own eps and alpha
    spec = ProblemSpec(scheme, eps, field, "smooth", sigma=sigma, family="q2", n=n)
    rec = run_instance(spec)
    print(f"{scheme:12s} {rec.err_L2_rel:10.3e} {rec.err_H1_rel:10.3e} "
          f"{rec.cond1:10.2e} {rec.wall_time_seconds:6.2f}s  {rec.solve_status}")

print("\nThe standard scheme 'solves' but its condition number carries the")
print("full 1/eps stiffness; the reformulations keep it mesh-limited.")
