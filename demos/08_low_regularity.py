"""A source term that is square integrable but not square-integrably
differentiable.

The primal error keeps its optimal Q1 rate, but the auxiliary variable
reacts to the lost regularity: its H1 norm grows under refinement when
the anisotropy direction is not mesh-aligned, and stays flat when it is.
The L2 norms stay bounded either way.
"""

from anisofem import StudyConfig
from anisofem.studies import observed_orders, run_study

records = run_study(StudyConfig("low_regularity", n=[16, 32, 64]))

for alpha in (0.0, 2.0):
    print(f"\nalpha = {alpha:g}")
    print(f"{'h':>9s} {'scheme':12s} {'u L2 err':>11s} {'aux L2':>9s} {'aux H1':>9s}")
    for scheme in ("inflow", "stabilized"):
        sel = [r for r in records if r.alpha == alpha and r.scheme == scheme]
        for r in sel:
            print(f"{r.h:9.5f} {r.scheme:12s} {r.err_L2_abs:11.3e} "
                  f"{r.q_or_xi_L2_norm:9.3f} {r.q_or_xi_H1_norm:9.3f}")
        orders = observed_orders([r.h for r in sel], [r.err_L2_abs for r in sel])
        print(f"{'':9s} {scheme:12s} L2 orders: "
              + ", ".join(f"{o:.2f}" for o in orders))
