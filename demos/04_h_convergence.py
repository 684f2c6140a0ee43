"""Mesh-refinement study for both reformulations.

Reproduces the shape of the reference error tables on a reduced ladder:
third-order L2 and second-order H1 convergence for Q2 elements, uniformly
in the anisotropy strength, with sigma = h^3 for the stabilized scheme.
Emits the records as CSV plus a gnuplot script.
"""

import os

from anisofem import StudyConfig, emit_csv, emit_plot_script, observed_orders
from anisofem.studies import run_study

cfg = StudyConfig("h_convergence", n=[5, 10, 20, 40])
records = run_study(cfg)

for eps, alpha in ((1.0, 0.0), (1e-10, 0.0), (1e-10, 2.0)):
    print(f"\nregime eps = {eps:g}, alpha = {alpha:g}")
    print(f"{'h':>9s}  {'scheme':12s} {'L2 rel':>10s} {'H1 rel':>10s}")
    for scheme in ("inflow", "stabilized"):
        sel = [r for r in records
               if r.eps == eps and r.alpha == alpha and r.scheme == scheme]
        for r in sel:
            print(f"{r.h:9.5f}  {r.scheme:12s} {r.err_L2_rel:10.3e} "
                  f"{r.err_H1_rel:10.3e}")
        orders = observed_orders([r.h for r in sel], [r.err_L2_rel for r in sel])
        print(f"{'':9s}  {scheme:12s} observed L2 orders: "
              + ", ".join(f"{o:.2f}" for o in orders))

os.makedirs("out", exist_ok=True)
emit_csv(records, "out/h_convergence.csv")
emit_plot_script(records, "out/h_convergence.gp", "out/h_convergence.csv")
print("\nwrote out/h_convergence.csv and out/h_convergence.gp")
