"""Robustness across twenty decades of anisotropy strength.

Both reformulations keep a mesh-limited error from eps = 1e-20 up to
eps ~ 0.1 at fixed resolution; the error only moves once eps approaches 1,
where the problem stops being stiff.  This is the property a naive
discretization loses completely.
"""

from anisofem import StudyConfig
from anisofem.studies import run_study

cfg = StudyConfig("eps_sweep", n=[25],
                  eps=[1e-20, 1e-12, 1e-8, 1e-4, 1e-2, 1e-1, 1.0, 10.0])
records = run_study(cfg)

print(f"{'eps':>8s} {'inflow L2':>12s} {'stabilized L2':>14s}")
eps_values = sorted({r.eps for r in records})
for eps in eps_values:
    row = {r.scheme: r for r in records if r.eps == eps}
    print(f"{eps:8.0e} {row['inflow'].err_L2_abs:12.4e} "
          f"{row['stabilized'].err_L2_abs:14.4e}")

small = [r.err_L2_abs for r in records if r.scheme == "inflow" and r.eps <= 1e-2]
print(f"\ninflow error spread for eps <= 1e-2: "
      f"{max(small) / min(small) - 1.0:.1%}")
