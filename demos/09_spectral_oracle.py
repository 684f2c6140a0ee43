"""Cross-validation against the closed-form mode solver.

On (0, pi)^2 with the vertical field and unit coefficients, sine/cosine
modes diagonalize the stabilized problem, giving exact reference
solutions for any (eps, sigma).  The finite element solutions converge to
them at the optimal rate, and the mode coefficients obey anisotropy-
uniform regularity bounds.
"""

import numpy as np

from anisofem import (FourierRhs, StudyConfig, eval_series, observed_orders,
                      sobolev_seminorm, spectral_solve)
from anisofem.studies import run_study

f = FourierRhs.from_modes([(1, 1, 1.0)])
for eps, sigma in ((1.0, 0.5), (1e-10, 1e-6), (0.0, 1e-4)):
    sol = spectral_solve(f, eps, sigma)
    print(f"eps = {eps:7.0e} sigma = {sigma:7.0e}: "
          f"u_11 = {sol.u_coeff[0]:.6e}, xi_11 = {sol.xi_coeff[0]:.6f}")
sol = spectral_solve(f, 1e-8, 0.0)
print("inflow auxiliary series at (pi/2, pi):",
      float(eval_series(sol, "q", np.pi / 2, np.pi)))

print("\nFEM against the series, mode (1,1), eps = 1e-10, sigma = 1e-6:")
for family, expected in (("q1", 2), ("q2", 3)):
    cfg = StudyConfig("oracle_validation", family=family, n=[8, 16, 32])
    recs = run_study(cfg)
    orders = observed_orders([r.h for r in recs], [r.err_L2_abs for r in recs])
    print(f"  {family}: L2 differences "
          + ", ".join(f"{r.err_L2_abs:.2e}" for r in recs)
          + f"  orders {[f'{o:.2f}' for o in orders]} (optimal {expected})")

# eps- and sigma-uniform regularity, coefficient-wise
rng = np.random.default_rng(0)
modes = [(int(rng.integers(1, 9)), int(rng.integers(0, 9)),
          float(rng.standard_normal())) for _ in range(6)]
g = FourierRhs.from_modes(modes)
worst = 0.0
for eps in (0.0, 1e-10, 1e-2, 1.0):
    for sigma in (1e-8, 1e-2, 1.0):
        sol = spectral_solve(g, eps, sigma)
        u_modes = list(zip(g.k, g.l, sol.u_coeff))
        worst = max(worst, sobolev_seminorm(u_modes, 2.0) / sobolev_seminorm(g, 0.0))
print(f"\nmax |u|_2 / |f|_0 over an (eps, sigma) grid: {worst:.3f} (bound 1)")
