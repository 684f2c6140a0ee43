import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from anisofem import fem, schemes, solver, studies
from anisofem.fem import parallel_seminorm
from anisofem.fields import FieldSpec, LinearFunctional, ManufacturedCase
from anisofem.geometry import build_quad_mesh
from anisofem.schemes import ProblemSpec, SchemeOperators
from anisofem.spectral import FourierRhs, eval_series, spectral_solve
from anisofem.studies import (STUDIES, StudyConfig, StudyRecord, emit_csv,
                              emit_plot_script, loglog_slope, observed_orders,
                              read_csv, record_h, separated_mode_ratio,
                              resolve_sigma, run_instance, run_study,
                              sweep_specs)

warnings.filterwarnings("ignore", message="stabilized scheme with sigma = 0")

# frozen baseline of the coarse/fine Riesz ratio at the smallest resolution
INFSUP_RATIO_N4 = 0.7980470866759155


def test_study_kind_validation():
    with pytest.raises(ValueError):
        StudyConfig("unknown_study")
    assert len(STUDIES) == 8


def test_record_h_convention():
    assert record_h("q1", 10) == pytest.approx(0.1)
    assert record_h("q2", 10) == pytest.approx(0.05)
    assert record_h("p2", 8, np.pi) == pytest.approx(np.pi / 16)


def test_resolve_sigma():
    assert resolve_sigma(("fixed", 1e-3), 0.5) == 1e-3
    assert resolve_sigma(("power", 3), 0.1) == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        resolve_sigma(("weird", 1), 0.1)


def test_observed_orders_exact():
    hs = [0.1, 0.05, 0.025]
    errs = [8.0, 1.0, 0.125]
    orders = observed_orders(hs, errs)
    assert abs(orders[0] - 3.0) <= 1e-12
    assert abs(orders[1] - 3.0) <= 1e-12


def test_loglog_slope():
    hs = np.array([0.1, 0.05, 0.025, 0.0125])
    assert loglog_slope(hs, 7.3 * hs ** -4.0) == pytest.approx(-4.0, abs=1e-12)


def _sample_records():
    return [
        StudyRecord("inflow", 10, 0.05, 1e-10, 0.0, 2.0, 1.5e-4, 3.2e-3,
                    1.7e-4, 3.6e-3, 0.7, 4.2, 7.9e5, "OK", 0.034),
        StudyRecord("stabilized", 20, 0.025, 1.0, 1.0 / 3.0, 0.0, np.pi,
                    np.e, 0.1, 0.2, float("nan"), float("nan"), 2.5e9,
                    "SINGULAR", 1.25e-4),
    ]


def test_csv_round_trip_bit_exact(tmp_path):
    path = tmp_path / "records.csv"
    records = _sample_records()
    emit_csv(records, path)
    back = read_csv(path)
    assert len(back) == 2
    for a, b in zip(records, back):
        for name in StudyRecord.__dataclass_fields__:
            va, vb = getattr(a, name), getattr(b, name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb


def test_csv_header_and_shape(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    text = path.read_text()
    assert text.count("\n") == 1
    assert text.startswith("scheme,n,h,eps,sigma,alpha,err_L2_abs")
    emit_csv(_sample_records()[:1], path)
    assert path.read_text().count("\n") == 2


def test_csv_uses_lf_endings(tmp_path):
    path = tmp_path / "lf.csv"
    emit_csv(_sample_records(), path)
    raw = path.read_bytes()
    assert b"\r" not in raw


def test_plot_script(tmp_path):
    csv = tmp_path / "sweep.csv"
    gp = tmp_path / "sweep.gp"
    records = _sample_records()
    emit_csv(records, csv)
    emit_plot_script(records, gp, str(csv))
    text = gp.read_text()
    assert "set logscale xy" in text
    assert str(csv) in text
    assert "plot " in text


def test_plot_script_default_csv_beside_it_in_a_dotted_directory(tmp_path):
    directory = tmp_path / "run.d"
    directory.mkdir()
    emit_plot_script(_sample_records(), directory / "sweep")
    text = (directory / "sweep").read_text()
    assert f"'{directory / 'sweep.csv'}' skip 1" in text
    assert str(tmp_path / "run.csv") not in text


@pytest.mark.parametrize("edit", [lambda row: row.rsplit(",", 1)[0],
                                  lambda row: row + ",1.5"],
                         ids=["short", "long"])
def test_read_csv_rejects_a_row_with_the_wrong_field_count(tmp_path, edit):
    path = tmp_path / "records.csv"
    emit_csv(_sample_records(), path)
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, first, edit(second)]) + "\n")
    with pytest.raises(ValueError, match="line 3: 1[46] fields, expected 15"):
        read_csv(path)


def test_small_study_deterministic(tmp_path):
    # every column except the wall time must be bit-identical across runs
    cfg = StudyConfig("h_convergence", schemes=["inflow"], family="q1",
                      n_list=[4, 8], eps_list=[1.0], alpha_list=[0.0])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_study(cfg), a)
    emit_csv(run_study(cfg), b)
    for ra, rb in zip(read_csv(a), read_csv(b)):
        for name in StudyRecord.__dataclass_fields__:
            if name == "wall_time_seconds":
                continue
            assert getattr(ra, name) == getattr(rb, name), name


def test_sigma_sweep_records_failures_without_aborting():
    cfg = StudyConfig("sigma_sweep", family="q1", n_list=[4],
                      eps_list=[0.0], alpha_list=[0.0],
                      sigma_list=[1e-3, 0.0])
    records = run_study(cfg)
    statuses = [r.solve_status for r in records]
    assert statuses == ["OK", "SINGULAR"]
    assert math.isnan(records[1].err_L2_abs)


_I, _S = "inflow", "stabilized"
_S4, _S8 = 0.25 ** 3, 0.125 ** 3            # sigma = h^3 on the Q1 ladder

# (config, expected (scheme, n, eps, sigma, alpha) of every record, in order)
_GRID_ORDER = {
    "sigma_sweep": (
        dict(n_list=[4, 8], sigma_list=[1e-2, 1e-4], multi_h=True),
        [(_S, 4, 1.0, 1e-2, 0.0), (_S, 4, 1.0, 1e-4, 0.0),
         (_S, 4, 1e-10, 1e-2, 0.0), (_S, 4, 1e-10, 1e-4, 0.0),
         (_S, 4, 1e-10, 1e-2, 2.0), (_S, 4, 1e-10, 1e-4, 2.0),
         # multi_h ladder: the variable-field regime over every n
         (_S, 4, 1e-10, 1e-2, 2.0), (_S, 4, 1e-10, 1e-4, 2.0),
         (_S, 8, 1e-10, 1e-2, 2.0), (_S, 8, 1e-10, 1e-4, 2.0)]),
    "h_convergence": (
        dict(n_list=[4, 8]),
        [(_I, 4, 1.0, 0.0, 0.0), (_S, 4, 1.0, _S4, 0.0),
         (_I, 8, 1.0, 0.0, 0.0), (_S, 8, 1.0, _S8, 0.0),
         (_I, 4, 1e-10, 0.0, 0.0), (_S, 4, 1e-10, _S4, 0.0),
         (_I, 8, 1e-10, 0.0, 0.0), (_S, 8, 1e-10, _S8, 0.0),
         (_I, 4, 1e-10, 0.0, 2.0), (_S, 4, 1e-10, _S4, 2.0),
         (_I, 8, 1e-10, 0.0, 2.0), (_S, 8, 1e-10, _S8, 2.0)]),
    "eps_sweep": (
        dict(n_list=[4], eps_list=[1e-8, 1.0]),
        [(_I, 4, 1e-8, 0.0, 2.0), (_I, 4, 1.0, 0.0, 2.0),
         (_S, 4, 1e-8, _S4, 2.0), (_S, 4, 1.0, _S4, 2.0)]),
    "conditioning": (
        dict(n_list=[4, 8], eps_list=[1e-10, 1.0]),
        [(_I, 4, 1e-10, 0.0, 2.0), (_I, 4, 1.0, 0.0, 2.0),
         (_S, 4, 1e-10, _S4, 2.0), (_S, 4, 1.0, _S4, 2.0),
         (_I, 8, 1e-10, 0.0, 2.0), (_I, 8, 1.0, 0.0, 2.0),
         (_S, 8, 1e-10, _S8, 2.0), (_S, 8, 1.0, _S8, 2.0)]),
    "low_regularity": (
        dict(n_list=[4, 8]),
        [(_I, 4, 1e-10, 0.0, 0.0), (_S, 4, 1e-10, 0.25 ** 2, 0.0),
         (_I, 8, 1e-10, 0.0, 0.0), (_S, 8, 1e-10, 0.125 ** 2, 0.0),
         (_I, 4, 1e-10, 0.0, 2.0), (_S, 4, 1e-10, 0.25 ** 2, 2.0),
         (_I, 8, 1e-10, 0.0, 2.0), (_S, 8, 1e-10, 0.125 ** 2, 2.0)]),
}


@pytest.mark.parametrize("kind", sorted(_GRID_ORDER))
def test_h_convergence_grid_order(kind):
    # every sweep keeps its grid order; sigma reaches only the stabilized
    # scheme, the inflow scheme records 0 whatever the sigma rule
    overrides, expected = _GRID_ORDER[kind]
    records = run_study(StudyConfig(kind, family="q1", **overrides))
    assert [(r.scheme, r.n, r.eps, r.sigma, r.alpha) for r in records] == expected
    assert all(r.h == 1.0 / r.n for r in records)


# (instances, first and last (scheme, n, eps, sigma, alpha)) of each
# sweep's default grid
_DEFAULT_GRIDS = {
    "sigma_sweep": (48, (_S, 50, 1.0, 1.0, 0.0), (_S, 50, 1e-10, 10.0 ** -15, 2.0)),
    "h_convergence": (30, (_I, 5, 1.0, 0.0, 0.0),
                      (_S, 80, 1e-10, (1 / 160) ** 3, 2.0)),
    "eps_sweep": (22, (_I, 50, 1e-20, 0.0, 2.0), (_S, 50, 10.0, (1 / 100) ** 3, 2.0)),
    "conditioning": (8, (_I, 10, 1e-10, 0.0, 2.0),
                     (_S, 80, 1e-10, (1 / 160) ** 3, 2.0)),
    "low_regularity": (16, (_I, 16, 1e-10, 0.0, 0.0),
                       (_S, 128, 1e-10, (1 / 128) ** 2, 2.0)),
}


@pytest.mark.parametrize("kind", sorted(_DEFAULT_GRIDS))
def test_sweep_default_grids(kind):
    # the grid a bare config expands to, without solving any of it
    count, first, last = _DEFAULT_GRIDS[kind]
    points = [(s.scheme, s.n, s.eps, s.sigma, s.field.alpha)
              for s in sweep_specs(StudyConfig(kind))]
    assert (len(points), points[0], points[-1]) == (count, first, last)


def _scheme_runs(cfg):
    """The schemes of each operator set of a sweep, in run order, with
    each run of equal schemes given once."""
    groups = itertools.groupby(sweep_specs(cfg), key=studies._operators_key)
    return [[scheme for scheme, _ in itertools.groupby(s.scheme for s in specs)]
            for _, specs in groups]


@pytest.mark.parametrize("cfg", [StudyConfig(kind) for kind, study in STUDIES.items()
                                 if study.runner is None]
                         + [StudyConfig("sigma_sweep", multi_h=True)],
                         ids=lambda cfg: cfg.kind + ("_multi_h" if cfg.multi_h else ""))
def test_default_sweeps_run_each_scheme_of_a_set_together(cfg):
    # an operator set keeps its last plan only: a grid that came back to a
    # scheme on the same set would build that scheme's plan again
    runs = _scheme_runs(cfg)
    assert runs
    for schemes_of_set in runs:
        assert len(schemes_of_set) == len(set(schemes_of_set)), schemes_of_set


@pytest.mark.parametrize("scheme,sigma", [("inflow", 0.0), ("stabilized", 1e-4)])
def test_operators_reusable_after_low_regularity_solve(scheme, sigma):
    # the inhomogeneous Dirichlet data of a low_reg instance must not leak
    # into the next instance solved on the same operators
    eps = 1e-10
    field = FieldSpec("variable_alpha", 2.0)

    def spec(case_id):
        return ProblemSpec(scheme, eps, field, ManufacturedCase(case_id, 2.0, eps),
                           sigma=sigma, family="q1", n=16)

    ops = SchemeOperators(spec("smooth").build_mesh(), field, "q1")
    run_instance(spec("low_reg"), ops)
    reused = run_instance(spec("smooth"), ops)
    fresh = run_instance(spec("smooth"))
    for name in StudyRecord.__dataclass_fields__:
        if name != "wall_time_seconds":
            assert getattr(reused, name) == getattr(fresh, name), name


def test_low_regularity_uses_h_squared():
    cfg = StudyConfig("low_regularity", schemes=["stabilized"], n_list=[8],
                      alpha_list=[0.0])
    rec = run_study(cfg)[0]
    assert rec.sigma == pytest.approx(rec.h ** 2)


def test_infsup_probe_baseline_and_oddity():
    out = run_study(StudyConfig("infsup_probe", n_list=[4]))
    assert out[0][0] == 4
    assert out[0][1] == pytest.approx(INFSUP_RATIO_N4, rel=1e-9)
    with pytest.raises(ValueError):
        run_study(StudyConfig("infsup_probe", n_list=[5]))


def test_dual_norm_check_analytic_values():
    assert separated_mode_ratio(1) == pytest.approx(0.8602325, rel=1e-6)
    assert separated_mode_ratio(4) == pytest.approx(0.4144451, rel=1e-6)
    vals = [separated_mode_ratio(k) for k in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_oracle_regression_point():
    cfg = StudyConfig("oracle_validation", family="q2", n_list=[16])
    rec = run_study(cfg)[0]
    assert rec.solve_status == "OK"
    # frozen from a reference run of this implementation
    assert rec.err_L2_abs == pytest.approx(9.654e-11, rel=0.05)


def test_dual_norm_check_fast_path():
    out = run_study(StudyConfig("dual_norm_check", n_list=[16], k_list=[1, 2]))
    for k, computed, analytic in out:
        assert computed == pytest.approx(analytic, rel=0.05)


def test_dual_norm_check_factors_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solver.lu_factor(*args, **kwargs)

    for module in (fem, schemes, studies):
        if hasattr(module, "lu_factor"):
            monkeypatch.setattr(module, "lu_factor", counted)
    out = run_study(StudyConfig("dual_norm_check", n_list=[16],
                                k_list=[1, 2, 3, 4]))
    assert len(calls) == 1
    # every ratio equals the one from a fresh factor of the standard plan's
    # matrix at coefficients (1, 0, 0): K on the free dofs in its order
    ops = SchemeOperators(build_quad_mesh(16, 16, np.pi, np.pi),
                          FieldSpec("aligned_e2"), "q2")
    plan = ops.plan("standard")
    matrix, _ = schemes._plan_matrices(ops, plan, ((1.0, 0.0, 0.0),))
    factor = solver.lu_factor(matrix, order=plan.order)
    for k, ratio, _ in out:
        q = ops.q_space.interpolate(
            lambda x, y: np.sin(k * x) * (np.cos(y) - np.cos(2 * y)))
        q[ops.q_space.constrained] = 0.0
        b = np.zeros(len(plan.order))
        b[plan.u_rows] = (ops.P @ q)[ops.u_space.free]
        v = solver.solve(factor, b)
        assert ratio == np.sqrt(max(v @ b, 0.0)) / parallel_seminorm(q, ops.P)


def test_sigma_sweep_multi_h_variant():
    cfg = StudyConfig("sigma_sweep", family="q1", n_list=[4, 8],
                      sigma_list=[1e-4], multi_h=True)
    records = run_study(cfg)
    # one fixed-h record per reference regime plus the ladder records,
    # which run at eps = 1e-10, alpha = 2
    assert [r.n for r in records] == [4, 4, 4, 4, 8]
    assert [(r.eps, r.alpha) for r in records[3:]] == [(1e-10, 2.0)] * 2
    assert all(r.solve_status == "OK" for r in records)
    # so an eps or alpha given with multi_h would not reach the ladder
    for grid in (dict(eps_list=[1e-10], alpha_list=[2.0]), dict(eps_list=[1.0])):
        with pytest.raises(ValueError, match="multi_h"):
            StudyConfig("sigma_sweep", family="q1", n_list=[4, 8],
                        sigma_list=[1e-4], multi_h=True, **grid)


def test_xi_against_mode_series():
    # the discrete auxiliary variable approaches its closed-form series
    from anisofem.schemes import build_system, solve_scheme

    f = FourierRhs.from_modes([(1, 1, 1.0)])
    eps, sigma = 1e-10, 1e-6
    sol = spectral_solve(f, eps, sigma)
    field = FieldSpec("aligned_e2")
    spec = ProblemSpec("stabilized", eps, field, sol, sigma=sigma,
                       family="q2", n=32, Lx=np.pi, Ly=np.pi)
    system = build_system(spec)
    result = solve_scheme(system)
    k, l, c = sol.rhs.k.astype(float), sol.rhs.l.astype(float), sol.xi_coeff

    def grad_xi(x, y):
        x = np.asarray(x, dtype=float)[..., None]
        y = np.asarray(y, dtype=float)[..., None]
        out = np.empty(np.broadcast_shapes(x.shape, y.shape)[:-1] + (2,))
        out[..., 0] = np.sum(c * k * np.cos(k * x) * np.cos(l * y), axis=-1)
        out[..., 1] = np.sum(-c * l * np.sin(k * x) * np.sin(l * y), axis=-1)
        return out

    xi = SimpleNamespace(u=lambda x, y: eval_series(sol, "xi", x, y), grad_u=grad_xi)
    diff = fem.error_norms(system.q_space, result.q, xi)[0]
    assert diff < 1e-4


class _UnitSourceCase(ManufacturedCase):
    """A manufactured case loaded with the plain source 1 + x*y instead."""

    def functional(self, field, eps):
        return LinearFunctional(source=lambda x, y: 1.0 + x * y)


class _LimitReferenceCase(ManufacturedCase):
    """A manufactured case measured against its eps -> 0 limit."""

    def u(self, x, y):
        return self.u_limit(x, y)

    def grad_u(self, x, y):
        return self.grad_u_limit(x, y)


class _AnyEpsCase:
    """A manufactured case's data under whatever eps the spec gives.

    It is not a built-in case, so a spec may pair it with another eps than
    the one it was built for, and it compares equal to the case it wraps,
    so to the memos its instance differs from that case's by eps only.
    """

    def __init__(self, case_id, alpha, eps):
        self.case = ManufacturedCase(case_id, alpha, eps)

    def __getattr__(self, name):
        return getattr(self.case, name)

    def __eq__(self, other):
        return self.case == other

    def __hash__(self):
        return hash(self.case)


def test_operator_memos_match_fresh_operators():
    # one operator set through changes of case, eps and scheme, with a case
    # of another load and one of another reference in between, back to the
    # first spec: every record equals the one from fresh operators
    field = FieldSpec("variable_alpha", 2.0)

    def spec(scheme, case_id, eps, case_eps=None, case_type=ManufacturedCase):
        case = case_type(case_id, 2.0, eps if case_eps is None else case_eps)
        return ProblemSpec(scheme, eps, field, case,
                           sigma=1e-4 if scheme == "stabilized" else 0.0,
                           family="q1", n=8)

    first = spec("inflow", "smooth", 1e-10)
    runs = [first,
            spec("stabilized", "smooth", 1e-10),
            spec("inflow", "smooth", 1e-4, case_eps=1e-10, case_type=_AnyEpsCase),
            spec("inflow", "low_reg", 1e-10),
            spec("stabilized", "low_reg", 1e-10),
            spec("stabilized", "low_reg", 1e-4),
            first,
            spec("inflow", "smooth", 1e-10, case_type=_UnitSourceCase),
            spec("inflow", "smooth", 1e-10, case_type=_LimitReferenceCase),
            spec("stabilized", "smooth", 1e-4),
            first]
    ops = SchemeOperators(first.build_mesh(), field, "q1")
    records = []
    for s in runs:
        reused = run_instance(s, ops)
        fresh = run_instance(s)
        for name in StudyRecord.__dataclass_fields__:
            if name != "wall_time_seconds":
                assert getattr(reused, name) == getattr(fresh, name), name
        records.append(reused)
    # an eps-only change, another load and another reference each give
    # another record than the memo's entry would
    for i in (2, 7, 8):
        assert records[i].err_L2_abs != records[0].err_L2_abs
    # the inflow q-space shares the u-space's tables, not its constraints
    for purpose in ("default", "error"):
        assert ops.q_space.tables(purpose) is ops.u_space.tables(purpose)
    assert len(ops.q_space.constrained) > len(ops.u_space.constrained)
    assert not np.array_equal(ops.q_space.free, ops.u_space.free)


def test_oracle_cases_share_operators():
    # two multi-mode mode solutions and a manufactured case alternate on one
    # operator set: every record equals the one from fresh operators.  The
    # memos key on the cases, so a mode solution compared by value (its
    # coefficient arrays) would raise here.
    field = FieldSpec("aligned_e2")
    eps, sigma = 1e-4, 1e-3
    sol_a = spectral_solve(FourierRhs.from_modes([(1, 1, 1.0), (2, 3, -0.5)]),
                           eps, sigma)
    sol_b = spectral_solve(FourierRhs.from_modes([(1, 2, 0.7), (3, 0, 0.25)]),
                           eps, sigma)
    manufactured = ManufacturedCase("smooth", 0.0, eps)

    def spec(case):
        return ProblemSpec("stabilized", eps, field, case, sigma=sigma,
                           family="q1", n=8, Lx=np.pi, Ly=np.pi)

    ops = SchemeOperators(spec(sol_a).build_mesh(), field, "q1")
    records = {}
    for case in (sol_a, sol_b, manufactured, sol_a, manufactured, sol_b, sol_b):
        reused = run_instance(spec(case), ops)
        fresh = run_instance(spec(case))
        for name in StudyRecord.__dataclass_fields__:
            if name != "wall_time_seconds":
                assert getattr(reused, name) == getattr(fresh, name), name
        records[id(case)] = reused
    errors = {records[id(c)].err_L2_abs for c in (sol_a, sol_b, manufactured)}
    assert len(errors) == 3
