"""Condition-number growth of the two saddle-point systems.

The inflow reformulation scales like 1/h^4, the stabilized one with
sigma = h^3 like 1/(sigma h^2) = 1/h^5, both independent of eps.  The
estimate is the 1-norm condition number obtained from the LU
factorization without forming an inverse.
"""

from anisofem import StudyConfig, loglog_slope
from anisofem.studies import run_study

records = run_study(StudyConfig("conditioning", n=[5, 10, 20, 40]))

print(f"{'h':>9s} {'inflow cond1':>14s} {'stabilized cond1':>18s}")
for n in (5, 10, 20, 40):
    row = {r.scheme: r for r in records if r.n == n}
    print(f"{row['inflow'].h:9.5f} {row['inflow'].cond1:14.3e} "
          f"{row['stabilized'].cond1:18.3e}")

for scheme in ("inflow", "stabilized"):
    sel = [r for r in records if r.scheme == scheme]
    slope = loglog_slope([r.h for r in sel], [r.cond1 for r in sel])
    print(f"{scheme}: log-log slope {slope:.2f}")
