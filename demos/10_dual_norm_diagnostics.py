"""Two diagnostics of the coupling form's discrete stability.

First the dual-norm ratio for separated modes sin(kx)(cos y - cos 2y),
where the ratio of the mesh-dependent dual norm to the parallel seminorm
has a closed form: the computed values land on it to many digits.

Second the coarse/fine Riesz-norm probe: for a multiplier oscillating at
the mesh scale across the field lines, the coarse space captures an
ever-smaller fraction of the true dual norm, which is exactly the mesh
dependence of the discrete inf-sup constant that the mesh-dependent norm
circumvents.
"""

from anisofem import StudyConfig
from anisofem.studies import run_study

print("dual-norm ratio against the closed form (64 cells, Q2):")
for k, computed, analytic in run_study(StudyConfig("dual_norm_check", n=[64])):
    print(f"  k = {k}: computed {computed:.6f}, analytic {analytic:.6f}")

print("\ncoarse/fine Riesz-norm ratio for a mesh-scale transverse oscillation:")
for n, ratio in run_study(StudyConfig("infsup_probe", n=[4, 8, 16, 32])):
    print(f"  n = {n:3d}: {ratio:.4f}")
print("the decay toward zero is the failing mesh-uniform inf-sup bound")
