"""How the stabilization parameter shapes the error.

Three regimes at a fixed mesh: with no anisotropy sigma is inert; with
strong aligned anisotropy the error plateaus once sigma drops below the
discretization error; with strong variable-direction anisotropy the curve
is U-shaped: too much stabilization perturbs the problem, too little lets
the near-non-uniqueness of the auxiliary variable leak roundoff into the
solution.  sigma = h^3 sits comfortably in the trough for Q2 elements.
"""

from anisofem import StudyConfig
from anisofem.studies import run_study

cfg = StudyConfig("sigma_sweep", n=[25],
                  sigma=[("fixed", 10.0 ** (-i)) for i in range(0, 15, 2)])
records = run_study(cfg)

regimes = ((1.0, 0.0, "isotropic"), (1e-10, 0.0, "strong, aligned"),
           (1e-10, 2.0, "strong, variable direction"))
for eps, alpha, label in regimes:
    sel = [r for r in records if r.eps == eps and r.alpha == alpha]
    print(f"\n{label} (eps = {eps:g}, alpha = {alpha:g})")
    print(f"{'sigma':>9s} {'L2 abs':>12s} {'H1 abs':>12s}")
    for r in sel:
        print(f"{r.sigma:9.0e} {r.err_L2_abs:12.4e} {r.err_H1_abs:12.4e}"
              + ("" if r.solve_status == "OK" else f"  [{r.solve_status}]"))
