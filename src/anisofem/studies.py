"""Experiment harness: parameter sweeps, diagnostics, CSV and plot output.

``STUDIES`` holds one entry per study kind: the config keys it reads,
with their defaults, its grid or runner and its output format.  A
StudyConfig field is named by its config key and holds one form of
value; ``KEYS`` maps each key to the converter of its parsed text.
``run_study`` runs a StudyConfig.  Every study is deterministic; solver
failures are recorded per point and never abort a sweep.
"""

from __future__ import annotations

import os
import time
from collections import ChainMap
from dataclasses import (dataclass, field as dataclass_field,
                         fields as dataclass_fields, replace)
from itertools import product
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .fields import ALPHA_MAX, CASE_IDS, FieldSpec, LinearFunctional
from .fem import FAMILIES, apply_map, assemble_rhs, error_norms, parallel_seminorm
from .geometry import build_quad_mesh, build_tri_mesh
from .schemes import (SCHEME_KINDS, ProblemSpec, SchemeOperators, build_system,
                      solve_scheme)
from .solver import SingularMatrixError
from .spectral import DegenerateSpectralProblem, FourierRhs, spectral_solve


def _is_number(value, kind=Real) -> bool:
    """An instance of kind; true and false, which Python counts as 1 and 0,
    are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _float(value) -> float:
    if not _is_number(value):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _as_parsed(value):
    return value


def _sigma(value) -> list:
    """sigma rules, one per value: a number is ("fixed", number) and h^p
    is ("power", p); a scalar is a list of one."""
    rules = []
    for item in _as_list(value):
        if isinstance(item, str):
            text = item.strip().lower()
            if not text.startswith("h^"):
                raise ValueError(f"{item!r} is not a number or h^p")
            rules.append(("power", float(text[2:])))
        else:
            rules.append(("fixed", _float(item)))
    return rules


# config-file key (and StudyConfig field): converter of the parsed value
KEYS = {
    "scheme": _as_list,
    "family": _as_parsed,
    "n": _as_list,
    "eps": _as_list,
    "sigma": _sigma,
    "alpha": _as_list,
    "case": _as_parsed,
    "modes": _as_parsed,
    "k": _as_list,
}


@dataclass
class StudyConfig:
    """Grids and selectors for one study, each field named by its config
    key; None fields fall back to the defaults of the study's STUDIES
    entry.  sigma is a list of ("fixed", value) or ("power", p) rules.
    Values a study cannot run with raise ValueError here, before any
    instance is built."""

    kind: str
    scheme: list | None = None
    family: str | None = None
    n: list | None = None
    eps: list | None = None
    sigma: list | None = None
    alpha: list | None = None
    case: str | None = None
    modes: list | None = None
    k: list | None = None

    def value(self, name: str):
        """A field as configured, else the study's fixed or default value."""
        study, value = STUDIES[self.kind], getattr(self, name)
        return {**study.reads, **study.fixed}[name] if value is None else value

    def __post_init__(self):
        if self.kind not in STUDIES:
            raise ValueError(f"unknown study kind {self.kind!r}")
        study = STUDIES[self.kind]
        for f in dataclass_fields(self)[1:]:      # every field but kind
            value = getattr(self, f.name)
            if f.name not in study.reads and value is not None:
                raise ValueError(f"{self.kind} does not use {f.name}")
            # an empty list would fall back to the defaults, or run nothing
            if isinstance(value, (list, tuple)) and not value:
                raise ValueError(f"{f.name} is an empty list; "
                                 "omit the key for the study's default values")
        rules = self.sigma or []
        if not isinstance(rules, list) or not all(
                isinstance(r, tuple) and r[0] in ("fixed", "power") for r in rules):
            raise ValueError(f"sigma {rules!r} is not a list of ('fixed', value) "
                             "and ('power', p) rules")
        for name in study.once:
            value = getattr(self, name) or ()
            if len(value) > 1:
                if name == "sigma":     # as a config file writes it: [0.001, h^2]
                    value = "[" + ", ".join(f"h^{v:g}" if rule == "power" else repr(v)
                                            for rule, v in value) + "]"
                raise ValueError(f"{self.kind} takes a single {name}, got {value}")
        sigmas = [value for rule, value in rules if rule == "fixed"]
        powers = [p for rule, p in rules if rule == "power"]
        if self.kind == "oracle_validation" and powers:
            raise ValueError("oracle_validation needs a fixed sigma: the mode "
                             "solver has no mesh size for an h^p rule")
        # membership in a tuple, so that an unhashable value is reported too
        bad = [s for s in self.scheme or () if s not in SCHEME_KINDS]
        if bad:
            raise ValueError(f"unknown scheme(s) {bad}; expected any of {SCHEME_KINDS}")
        if self.family is not None and self.family not in tuple(FAMILIES):
            raise ValueError(f"unknown family {self.family!r}; "
                             f"expected one of {tuple(FAMILIES)}")
        if (self.kind == "dual_norm_check" and self.family is not None
                and FAMILIES[self.family][0] != "quad"):
            raise ValueError("dual_norm_check runs on rectangles: family q1 or q2")
        if self.case is not None and self.case not in CASE_IDS:
            raise ValueError(f"unknown case {self.case!r}; expected one of {CASE_IDS}")
        bad = [a for a in self.alpha or ()
               if not _is_number(a) or not 0.0 <= a <= ALPHA_MAX]
        if bad:
            raise ValueError(f"alpha {bad} outside [0, {ALPHA_MAX:.6f}], where "
                             "the inflow/outflow split of the boundary is fixed")
        if (self.kind in ("sigma_sweep", "h_convergence") and self.eps is None
                and self.alpha is not None):
            raise ValueError(f"{self.kind} takes alpha only together with eps: "
                             "without eps it runs its three reference "
                             "(eps, alpha) regimes")
        if any(not _is_number(n, Integral) or n < 1 for n in self.n or ()):
            raise ValueError(f"n {self.n}: resolutions are positive integers")
        # oracle_validation runs q1 and q2 unless a family is given
        if ("family" in study.reads and 1 in (self.n or ())
                and FAMILIES[self.value("family") or "q1"][1] == 1):
            raise ValueError("n = 1 leaves a degree-1 family no unknowns: every "
                             "dof of the mesh lies on the Dirichlet boundary")
        if any(not _is_number(k, Integral) or k < 1 for k in self.k or ()):
            raise ValueError(f"k {self.k}: mode indices are positive integers")
        if self.kind == "infsup_probe" and any(n % 2 for n in self.n or ()):
            raise ValueError("infsup_probe needs even resolutions n: the probe "
                             "function vanishes on the constrained sides only then")
        if any(not _is_number(e) or not e >= 0.0 for e in self.eps or ()):
            raise ValueError(f"eps {self.eps}: anisotropy strengths are >= 0")
        if "standard" in (self.scheme or ()) and 0.0 in (self.eps or ()):
            raise ValueError("the standard scheme needs eps > 0")
        if any(not _is_number(sigma) or not sigma >= 0.0 for sigma in sigmas):
            raise ValueError(f"sigma {sigmas}: stabilization parameters are >= 0")
        # what passed the two checks above is a number >= 0, inf included;
        # an exponent p of h^p is any float
        for key, values in (("eps", self.eps or []), ("sigma", sigmas),
                            ("sigma h^p, p =", powers)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{key} {values}: the values must be finite")
        if self.modes is not None:
            try:
                FourierRhs.from_modes(self.modes)
            except (TypeError, IndexError, ValueError) as exc:
                raise ValueError(f"modes {self.modes!r} are not [[k, l, coeff], ...] "
                                 "with integers k >= 1 and l >= 0 and a finite "
                                 "coeff") from exc
        if self.kind == "oracle_validation":
            (eps,), (rule,) = self.value("eps"), self.value("sigma")
            try:
                spectral_solve(FourierRhs.from_modes(self.value("modes")), eps,
                               resolve_sigma(rule, 0.0))
            except DegenerateSpectralProblem as exc:
                raise ValueError(f"oracle_validation: {exc}") from None


@dataclass
class StudyRecord:
    """One experiment row."""

    scheme: str
    n: int
    h: float
    eps: float
    sigma: float
    alpha: float
    err_L2_abs: float
    err_H1_abs: float
    err_L2_rel: float
    err_H1_rel: float
    q_or_xi_L2_norm: float
    q_or_xi_H1_norm: float
    cond1: float
    solve_status: str
    wall_time_seconds: float


def record_h(family: str, n: int, Lx: float = 1.0) -> float:
    """Mesh-size convention of the study records: the dof-lattice spacing
    Lx/(degree*n).  For degree-1 families this is the cell size; for
    degree-2 ones it is half of it, which is the convention the reference
    error tables and the sigma = h^p rules follow."""
    return Lx / (FAMILIES[family][1] * n)


def resolve_sigma(rule, h: float) -> float:
    """sigma from a ("fixed", value) or ("power", p) rule, the latter h**p."""
    kind, value = rule
    if kind == "fixed":
        return float(value)
    if kind == "power":
        return float(h) ** float(value)
    raise ValueError(f"unknown sigma rule {rule!r}")


def observed_orders(hs, errors):
    """Convergence order log2(e_i/e_{i+1}) for a mesh ladder with h halving."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    orders = []
    for i in range(len(hs) - 1):
        orders.append(np.log(errors[i] / errors[i + 1]) / np.log(hs[i] / hs[i + 1]))
    return orders


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


# -- single-instance driver -------------------------------------------------


def run_instance(spec: ProblemSpec,
                 operators: SchemeOperators | None = None) -> StudyRecord:
    """Build, solve and measure one problem instance against spec.solution,
    whose values at the quadrature points the operator set remembers."""
    alpha = spec.field.alpha
    h = record_h(spec.family, spec.n, spec.Lx)
    t0 = time.perf_counter()
    try:
        system = build_system(spec, operators=operators)
        result = solve_scheme(system)
        status = "OK"
    except SingularMatrixError:
        elapsed = time.perf_counter() - t0
        nan = float("nan")
        return StudyRecord(spec.scheme, spec.n, h, spec.eps, spec.sigma, alpha,
                           nan, nan, nan, nan, nan, nan, nan, "SINGULAR", elapsed)
    elapsed = time.perf_counter() - t0
    exact = system.operators.exact_values(spec.solution)
    l2, h1, l2r, h1r = error_norms(system.u_space, result.u, exact)
    if system.q_space is not None:
        q_l2, q_h1, _, _ = error_norms(system.q_space, result.q, None)
    else:
        q_l2 = q_h1 = float("nan")
    return StudyRecord(spec.scheme, spec.n, h, spec.eps, spec.sigma, alpha,
                       l2, h1, l2r, h1r, q_l2, q_h1, result.cond1, "OK", elapsed)


def _run_specs(specs) -> list[StudyRecord]:
    """Run a study's grid of instances in order.

    Consecutive specs with the same operators_key share one operator set;
    a new key drops the previous set before building the next, so at most
    one set is alive.  A set keeps its last plan only, so a grid runs the
    instances of one scheme on a set together (every default grid does).
    """
    records, ops = [], None
    for spec in specs:
        if ops is None or ops.key != spec.operators_key:
            ops = None
            ops = SchemeOperators(spec.build_mesh(), spec.field, spec.family)
        records.append(run_instance(spec, ops))
    return records


# -- the sweeps -------------------------------------------------------------

_THREE_REGIMES = ((1.0, 0.0), (1e-10, 0.0), (1e-10, 2.0))   # (eps, alpha)


def _regimes(cfg: StudyConfig):
    """(eps, alpha) pairs: the three reference regimes unless eps is given."""
    eps = cfg.value("eps")
    return _THREE_REGIMES if eps is None else list(product(eps, cfg.value("alpha")))


def _spec(scheme: str, family: str, n: int, eps: float, sigma, alpha: float,
          case: str = "smooth") -> ProblemSpec:
    """One grid point on the variable field; sigma, a rule resolved at the
    record h, reaches only the stabilized scheme."""
    sigma = resolve_sigma(sigma, record_h(family, n))
    return ProblemSpec(scheme, eps, FieldSpec("variable_alpha", alpha), case,
                       sigma=sigma if scheme == "stabilized" else 0.0,
                       family=family, n=n)


def _axis(cfg: StudyConfig, name: str) -> list[dict]:
    """The _spec arguments along one grid axis of a sweep."""
    if name == "regime":
        return [dict(eps=eps, alpha=alpha) for eps, alpha in _regimes(cfg)]
    return [{name: v} for v in _as_list(cfg.value(name))]


def sweep_specs(cfg: StudyConfig) -> list[ProblemSpec]:
    """The instances of a sweep, in order: the product of its entry's axes,
    outermost first.  An axis is the values of a key, one value if the
    study reads one, or "regime", the (eps, alpha) pairs of _regimes.  A
    variant grid, such as the sigma sweep over a mesh ladder in one
    regime, is one more StudyConfig (one more config section)."""
    axes = [_axis(cfg, name) for name in STUDIES[cfg.kind].axes]
    return [_spec(**ChainMap(*point)) for point in product(*axes)]


# -- oracle and diagnostics --------------------------------------------------


def _oracle_validation(cfg: StudyConfig) -> list[StudyRecord]:
    """Stabilized finite elements against the mode solver on (0, pi)^2.

    Error fields hold the FEM-versus-series differences of the primal
    variable; auxiliary norms hold the discrete auxiliary variable norms.
    When 1 - eps and sigma are both exactly zero the primal block decouples
    from the (then non-unique) auxiliary one; it is then solved on its own
    as the standard scheme at eps = 1, and still recorded as stabilized.
    """
    families = [cfg.family] if cfg.family else ["q1", "q2"]
    (eps,), (rule,) = cfg.value("eps"), cfg.value("sigma")
    sigma = resolve_sigma(rule, 0.0)
    rhs = FourierRhs.from_modes(cfg.value("modes"))
    scheme = "standard" if eps == 1.0 and sigma == 0.0 else "stabilized"
    specs = [ProblemSpec(scheme, eps, FieldSpec("aligned_e2"), rhs,
                         sigma=sigma, family=family, n=n, Lx=np.pi, Ly=np.pi)
             for family in families for n in cfg.value("n")]
    records = _run_specs(specs)
    return [replace(rec, scheme="stabilized") for rec in records]


def _infsup_probe(cfg: StudyConfig) -> list[tuple[int, float]]:
    """Ratio of coarse to refined Riesz norms for an oscillatory multiplier.

    Coarse space: P1 on the n-triangulation; refined: P2 on the 2n one
    (a superset, so the ratio cannot exceed 1).  The probe function is
    y * sin(pi*n*x/2) at the coarse nodes: it oscillates at the mesh scale
    ACROSS the field lines (the direction that degrades the coupling
    stability; oscillation along them is resolved by resonant test
    functions and shows no decay), and it vanishes on the constrained
    sides exactly when n is even.
    """
    field = FieldSpec("aligned_e2")
    return [(n, _infsup_ratio(n, field)) for n in cfg.value("n")]


def _infsup_ratio(n: int, field: FieldSpec) -> float:
    coarse = SchemeOperators(build_tri_mesh(n), field, "p1")
    fine = SchemeOperators(build_tri_mesh(2 * n), field, "p2")
    Vc = coarse.u_space
    q = Vc.interpolate(lambda x, y: y * np.sin(np.pi * n * x / 2.0))

    norm_c = coarse.dual_norm(q)

    # the coarse multiplier gradient is constant per coarse triangle; each
    # fine element, quadrature points included, nests inside one of them
    tab_c = Vc.tables()
    grad_q = apply_map(q[Vc.element_dofs] @ tab_c["dN"][:, 0, :], tab_c["invJ"])
    hcell = 1.0 / n

    def flux(x, y, field_values):
        # (b.grad q) b for the aligned field b = e2, so no field values
        ci = np.clip((x // hcell).astype(int), 0, n - 1)
        cj = np.clip((y // hcell).astype(int), 0, n - 1)
        parent = 2 * (cj * n + ci) + (y - cj * hcell > x - ci * hcell)
        F = np.zeros(x.shape + (2,))
        F[..., 1] = grad_q[parent, 1]
        return F

    rf = assemble_rhs(fine.u_space, LinearFunctional(flux=flux))
    norm_f = fine.riesz_norm(rf[fine.u_space.free])
    return float(norm_c / norm_f)


def separated_mode_ratio(k: int) -> float:
    """Closed-form dual-to-parallel norm ratio for the separated mode q_k."""
    return np.sqrt((1.0 / (k * k + 1.0) + 16.0 / (k * k + 4.0)) / 5.0)


def _dual_norm_check(cfg: StudyConfig) -> list[tuple[int, float, float]]:
    """Dual-norm ratio of q_k = sin(kx)(cos y - cos 2y) against its closed form.

    Aligned field on (0, pi)^2; the interpolated mode lies in the
    constrained multiplier space, so the discrete ratio converges to the
    analytic one under refinement.
    """
    n, = cfg.value("n")
    ops = SchemeOperators(build_quad_mesh(n, n, np.pi, np.pi),
                          FieldSpec("aligned_e2"), cfg.value("family"))
    out = []
    for k in cfg.value("k"):
        q = ops.q_space.interpolate(
            lambda x, y, k=k: np.sin(k * x) * (np.cos(y) - np.cos(2 * y)))
        q[ops.q_space.constrained] = 0.0
        ratio = ops.dual_norm(q) / parallel_seminorm(q, ops.P)
        out.append((k, float(ratio), separated_mode_ratio(k)))
    return out

# -- the study kinds ---------------------------------------------------------


@dataclass(frozen=True)
class Study:
    """One study kind: what it reads, how it runs, what it writes."""

    blurb: str                      # its line in ``anisofem list-studies``
    reads: dict                     # each key it reads: its default
    once: tuple = ()                # keys of which it reads a single value
    axes: tuple = ()                # a sweep's grid (sweep_specs)
    fixed: dict = dataclass_field(default_factory=dict)   # grid values, no key
    header: tuple | None = None     # a table study's CSV header; None: records
    runner: Callable | None = None  # None: a sweep


# what a sweep reads unless its entry says otherwise; eps None runs the
# three reference regimes of _regimes
_SWEEP = dict(scheme=["inflow", "stabilized"], family="q2", alpha=[2.0],
              sigma=[("power", 3)])

STUDIES = {
    "sigma_sweep": Study(
        "stabilization-parameter sweep per mesh (3 regimes)",
        dict(family="q2", n=[50], eps=None, alpha=[2.0],
             sigma=[("fixed", 10.0 ** (-i)) for i in range(16)]),
        fixed=dict(scheme=["stabilized"]),
        axes=("family", "scheme", "n", "regime", "sigma")),
    "h_convergence": Study(
        "refinement ladder for both reformulations",
        dict(_SWEEP, n=[5, 10, 20, 40, 80], eps=None, case="smooth"),
        once=("sigma",),
        axes=("family", "sigma", "case", "regime", "n", "scheme")),
    "eps_sweep": Study(
        "anisotropy-strength robustness sweep",
        dict(_SWEEP, n=[50], case="smooth",
             eps=[1e-20, 1e-16, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1,
                  1.0, 10.0]),
        once=("n", "alpha", "sigma"),
        axes=("family", "n", "sigma", "case", "scheme", "regime")),
    "conditioning": Study(
        "cond_1 growth under refinement",
        dict(_SWEEP, n=[10, 20, 40, 80], eps=[1e-10]),
        once=("alpha", "sigma"),
        axes=("family", "sigma", "n", "scheme", "regime")),
    "low_regularity": Study(
        "square-integrable-only source term study",
        dict(_SWEEP, family="q1", n=[16, 32, 64, 128], eps=[1e-10],
             alpha=[0.0, 2.0], sigma=[("power", 2)]),
        once=("eps", "sigma"), fixed=dict(case="low_reg"),
        axes=("family", "sigma", "case", "regime", "n", "scheme")),
    "oracle_validation": Study(
        "finite elements vs closed-form mode solver",
        dict(family=None, n=[8, 16, 32, 64], eps=[1e-10],   # None: q1, q2
             sigma=[("fixed", 1e-6)], modes=[(1, 1, 1.0)]),
        once=("eps", "sigma"), runner=_oracle_validation),
    "infsup_probe": Study(
        "coarse/fine Riesz-norm ratio diagnostic",
        dict(n=[4, 8, 16, 32]),
        header=("n", "ratio"), runner=_infsup_probe),
    "dual_norm_check": Study(
        "dual-norm ratio vs closed form for separated modes",
        dict(family="q2", n=[128], k=[1, 2, 3, 4]),
        once=("n",), header=("k", "computed_ratio", "analytic_ratio"),
        runner=_dual_norm_check),
}


def run_study(cfg: StudyConfig):
    """Run one study: a sweep's StudyRecords, or its runner's rows."""
    runner = STUDIES[cfg.kind].runner
    return runner(cfg) if runner is not None else _run_specs(sweep_specs(cfg))


# -- output -------------------------------------------------------------------

_RECORD_FIELDS = [f.name for f in dataclass_fields(StudyRecord)]
_PARSE = {"scheme": str, "n": int, "solve_status": str}     # the rest: float


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit_csv(rows, path, header=None) -> None:
    """A study's result as comma-separated values, 17-significant-digit
    floats, LF endings.  header None: StudyRecords, field by field, under
    the record header; otherwise a table study's rows (tuples) under its
    ``Study.header``."""
    if header is None:
        header = _RECORD_FIELDS
        rows = ([getattr(rec, name) for name in header] for rec in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_format_value, row)) + "\n")


def read_csv(path) -> list[StudyRecord]:
    """Parse a file written by emit_csv back into records.  A row with
    more or fewer fields than the header raises ValueError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != _RECORD_FIELDS:
            raise ValueError("unexpected CSV header")
        records = []
        for number, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(_RECORD_FIELDS):
                raise ValueError(f"{path}, line {number}: {len(parts)} fields, "
                                 f"expected {len(_RECORD_FIELDS)}")
            records.append(StudyRecord(*(_PARSE.get(name, float)(raw)
                                         for name, raw in zip(_RECORD_FIELDS, parts))))
    return records


def emit_plot_script(records, path, csv_path=None) -> None:
    """gnuplot command file producing log-log curves from the matching CSV.

    The abscissa is the first of sigma, h and eps that varies along a
    curve, else h.  A curve holds fixed scheme, n, eps and alpha along
    sigma; scheme, eps, alpha and the family's n*h = L/degree along h;
    scheme, n and alpha along eps.  So no line joins two regimes, meshes
    or families, and the inflow sigma = 0 beside a stabilized sigma > 0 is
    no variation.  The script is emitted, never executed.
    """
    records = list(records)
    if csv_path is None:
        csv_path = os.path.splitext(path)[0] + ".csv"
    column = {name: f"${i}" for i, name in enumerate(_RECORD_FIELDS, 1)} | {"n*h": "$2*$3"}
    shared = {"sigma": ("scheme", "n", "eps", "alpha"),
              "h": ("scheme", "eps", "alpha", "n*h"), "eps": ("scheme", "n", "alpha")}

    def along(x):
        """The curves along x, each by the values it holds fixed: its x values."""
        out = {}
        for r in records:
            key = tuple(r.n * r.h if name == "n*h" else getattr(r, name)
                        for name in shared[x])
            out.setdefault(key, set()).add(getattr(r, x))
        return out

    x_name = next((x for x in shared if any(len(v) > 1 for v in along(x).values())), "h")
    names, keys = shared[x_name], list(along(x_name)) or [("inflow",)]

    def curve(k, name, label):
        """The CSV rows of the curve k, the others undefined."""
        test = " && ".join(f"strcol(1) eq '{v}'" if part == "scheme" else
                           f"{column[part]} == {_format_value(v)}"
                           for part, v in zip(names, k))
        title = " ".join([k[0], label] + [f"{p}={v:g}" for p, v in zip(names[1:], k[1:])])
        return (f"'{csv_path}' skip 1 using ({test} ? {column[x_name]} : NaN):"
                f"({column[name]}) with linespoints title '{title}'")

    def plot(fields):
        """One plot command: each curve of each (field, label)."""
        return "plot " + ", \\\n     ".join(
            curve(k, name, label) for k in keys for name, label in fields)

    lines = [
        "# log-log curves for the study output; run with gnuplot",
        "set datafile separator ','",
        "set logscale xy",
        "set key outside",
        f"set xlabel '{x_name}'",
        "set ylabel 'error'",
        "set terminal pngcairo size 900,600",
        f"set output '{csv_path}.errors.png'",
        plot([("err_L2_abs", "L2"), ("err_H1_abs", "H1")]),
    ]
    if records and all(np.isfinite(r.cond1) for r in records):
        lines += ["set ylabel 'cond_1'", f"set output '{csv_path}.cond.png'",
                  plot([("cond1", "cond1")])]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


