"""Asymptotic-preserving finite elements for highly anisotropic elliptic
problems on rectangles: two reformulations (inflow-pinned multiplier and
stabilized), a structured Q1/Q2/P1/P2 kernel, a closed-form mode oracle,
and an experiment harness reproducing the associated convergence,
robustness and conditioning studies."""

from .fields import (DegenerateFieldError, FieldSpec, LinearFunctional,
                     ManufacturedCase, eval_A, eval_b, rhs_functional,
                     source_functional)
from .fem import (FemSpace, assemble, assemble_rhs, error_norms,
                  parallel_seminorm)
from .geometry import (BoundaryTags, Mesh, Tag, build_quad_mesh,
                       build_tri_mesh, classify_boundary)
from .schemes import (BlockSystem, ProblemSpec, SchemeOperators, SchemeResult,
                      build_system, solve_scheme)
from .solver import (LuFactor, SingularMatrixError, cond1_estimate,
                     lu_factor, solve)
from .spectral import (DegenerateSpectralProblem, FourierRhs, SpectralSolution,
                       eval_series, sobolev_seminorm, spectral_solve)
from .studies import (StudyConfig, StudyRecord, emit_csv, emit_plot_script,
                      loglog_slope, observed_orders, read_csv,
                      separated_mode_ratio, run_instance, run_study)

__version__ = "0.1.0"
