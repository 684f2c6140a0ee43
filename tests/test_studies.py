import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from anisofem import fem, schemes, solver, studies
from anisofem.fem import parallel_seminorm
from anisofem.fields import FieldSpec, LinearFunctional, ManufacturedCase
from anisofem.geometry import build_quad_mesh
from anisofem.schemes import ProblemSpec, SchemeOperators
from anisofem.spectral import FourierRhs, eval_series
from anisofem.studies import (STUDIES, StudyConfig, StudyRecord, emit_csv,
                              emit_plot_script, loglog_slope, observed_orders,
                              read_csv, record_h, separated_mode_ratio,
                              resolve_sigma, run_instance, run_study,
                              sweep_specs)
from reference_outputs import REFERENCE_DIR, read_rows

# frozen baseline of the coarse/fine Riesz ratio at the smallest resolution
INFSUP_RATIO_N4 = 0.7980470866759155


def test_study_kind_validation():
    with pytest.raises(ValueError):
        StudyConfig("unknown_study")
    assert len(STUDIES) == 8


@pytest.mark.parametrize("sigma", [1e-3, [1e-3], ("fixed", 1e-3), [("x", 1)]],
                         ids=["number", "numbers", "one_rule", "unknown_rule"])
def test_study_config_sigma_is_a_list_of_rules(sigma):
    # one form for every study: a list, a scalar given as a list of one
    with pytest.raises(ValueError, match="not a list of"):
        StudyConfig("sigma_sweep", sigma=sigma)
    cfg = StudyConfig("eps_sweep", sigma=[("power", 2.0)])
    assert cfg.value("sigma") == [("power", 2.0)]


@pytest.mark.parametrize("sigma, text", [
    ([("fixed", 1e-3), ("fixed", 1e-5)], "[0.001, 1e-05]"),
    ([("power", 2.0), ("fixed", 1e-3)], "[h^2, 0.001]"),
    ([("power", 1.5), ("power", 3.0)], "[h^1.5, h^3]")],
    ids=["fixed", "power_and_fixed", "power"])
def test_single_sigma_message_reads_as_the_config_wrote_it(sigma, text):
    with pytest.raises(ValueError) as info:
        StudyConfig("eps_sweep", sigma=sigma)
    assert str(info.value) == f"eps_sweep takes a single sigma, got {text}"


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


_PLOT_AXES = {"sigma_sweep": "sigma", "eps_sweep": "eps", "h_convergence": "h",
              "conditioning": "h", "low_regularity": "h", "oracle_validation": "h"}


def _reference_records(tmp_path, kind):
    """The reference CSV of a record study, as emit_csv wrote it."""
    header, *rows = read_rows(REFERENCE_DIR / f"{kind}.csv")
    csv = tmp_path / "records.csv"
    csv.write_text("\n".join(",".join(row) for row in
                             [header + ["wall_time_seconds"]]
                             + [row + ["0"] for row in rows]) + "\n")
    return csv


@pytest.mark.parametrize("kind", sorted(_PLOT_AXES))
def test_plot_script_axis_of_each_reference_study(tmp_path, kind):
    # the inflow scheme records sigma = 0 beside the stabilized sigma > 0;
    # that is no sigma axis, which a log scale would empty of inflow points
    emit_plot_script(read_csv(_reference_records(tmp_path, kind)), tmp_path / "plot.gp")
    assert f"set xlabel '{_PLOT_AXES[kind]}'" in (tmp_path / "plot.gp").read_text()


def _gnuplot_test(test, row):
    """A curve's row test of a plot script, evaluated on a CSV row."""
    test = re.sub(r"strcol\((\d+)\) eq", lambda m: f"row[{int(m[1]) - 1}] ==", test)
    test = re.sub(r"\$(\d+)", lambda m: f"float(row[{int(m[1]) - 1}])", test)
    return eval(test.replace("&&", "and"), {"row": row})


# (scheme, eps, alpha, family) ladders or regimes of each reference study
_PLOT_CURVES = {"sigma_sweep": 3, "eps_sweep": 2, "h_convergence": 6,
                "conditioning": 2, "low_regularity": 4, "oracle_validation": 2}


@pytest.mark.parametrize("kind", sorted(_PLOT_CURVES))
def test_plot_script_draws_one_curve_per_regime(tmp_path, kind):
    # one curve per scheme, regime, mesh and family: a line through every
    # record of a scheme joined the three regimes of the default sigma
    # sweep, and oracle_validation's q1 and q2 ladders
    csv = _reference_records(tmp_path, kind)
    emit_plot_script(read_csv(csv), tmp_path / "plot.gp")
    tests = re.findall(r"using \((.*?) \? \$\d+ : NaN\):\(\$7\) ",
                       (tmp_path / "plot.gp").read_text())   # the L2 curves
    assert len(tests) == _PLOT_CURVES[kind]
    rows = read_rows(csv)[1:]
    on = [[i for i, row in enumerate(rows) if _gnuplot_test(t, row)] for t in tests]
    assert sorted(itertools.chain(*on)) == list(range(len(rows)))
    fixed = (0, 5) if kind == "eps_sweep" else (0, 3, 5)   # scheme, eps, alpha
    for curve in on:
        assert len({tuple(rows[i][c] for c in fixed) for i in curve}) == 1
    if kind == "sigma_sweep":
        assert [{rows[i][3] for i in curve} for curve in on] == [
            {"1"}, {"1e-10"}, {"1e-10"}]
        assert [len(curve) for curve in on] == [16, 16, 16]


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
    cfg = StudyConfig("h_convergence", scheme=["inflow"], family="q1",
                      n=[4, 8], eps=[1.0], alpha=[0.0])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_study(cfg), a)
    emit_csv(run_study(cfg), b)
    for ra, rb in zip(read_csv(a), read_csv(b)):
        for name in StudyRecord.__dataclass_fields__:
            if name == "wall_time_seconds":
                continue
            assert getattr(ra, name) == getattr(rb, name), name


def test_sigma_sweep_records_failures_without_aborting():
    cfg = StudyConfig("sigma_sweep", family="q1", n=[4], eps=[0.0], alpha=[0.0],
                      sigma=[("fixed", 1e-3), ("fixed", 0.0)])
    records = run_study(cfg)
    statuses = [r.solve_status for r in records]
    assert statuses == ["OK", "SINGULAR"]
    assert math.isnan(records[1].err_L2_abs)


_I, _S = "inflow", "stabilized"
_S4, _S8 = 0.25 ** 3, 0.125 ** 3            # sigma = h^3 on the Q1 ladder
_SIGMAS = [("fixed", 1e-2), ("fixed", 1e-4)]

# (the configs of one section each, expected (scheme, n, eps, sigma, alpha)
# of every record, in order)
_GRID_ORDER = {
    "sigma_sweep": (
        [dict(n=[4, 8], sigma=_SIGMAS)],
        [(_S, n, eps, sigma, alpha) for n in (4, 8)
         for eps, alpha in ((1.0, 0.0), (1e-10, 0.0), (1e-10, 2.0))
         for sigma in (1e-2, 1e-4)]),
    # the sweep at one n, then a section of the variable-field regime over
    # a mesh ladder
    "sigma_sweep_ladder": (
        [dict(n=[4], sigma=_SIGMAS),
         dict(n=[4, 8], eps=[1e-10], alpha=[2.0], sigma=_SIGMAS)],
        [(_S, 4, 1.0, 1e-2, 0.0), (_S, 4, 1.0, 1e-4, 0.0),
         (_S, 4, 1e-10, 1e-2, 0.0), (_S, 4, 1e-10, 1e-4, 0.0),
         (_S, 4, 1e-10, 1e-2, 2.0), (_S, 4, 1e-10, 1e-4, 2.0),
         (_S, 4, 1e-10, 1e-2, 2.0), (_S, 4, 1e-10, 1e-4, 2.0),
         (_S, 8, 1e-10, 1e-2, 2.0), (_S, 8, 1e-10, 1e-4, 2.0)]),
    "h_convergence": (
        [dict(n=[4, 8])],
        [(_I, 4, 1.0, 0.0, 0.0), (_S, 4, 1.0, _S4, 0.0),
         (_I, 8, 1.0, 0.0, 0.0), (_S, 8, 1.0, _S8, 0.0),
         (_I, 4, 1e-10, 0.0, 0.0), (_S, 4, 1e-10, _S4, 0.0),
         (_I, 8, 1e-10, 0.0, 0.0), (_S, 8, 1e-10, _S8, 0.0),
         (_I, 4, 1e-10, 0.0, 2.0), (_S, 4, 1e-10, _S4, 2.0),
         (_I, 8, 1e-10, 0.0, 2.0), (_S, 8, 1e-10, _S8, 2.0)]),
    "eps_sweep": (
        [dict(n=[4], eps=[1e-8, 1.0])],
        [(_I, 4, 1e-8, 0.0, 2.0), (_I, 4, 1.0, 0.0, 2.0),
         (_S, 4, 1e-8, _S4, 2.0), (_S, 4, 1.0, _S4, 2.0)]),
    "conditioning": (
        [dict(n=[4, 8], eps=[1e-10, 1.0])],
        [(_I, 4, 1e-10, 0.0, 2.0), (_I, 4, 1.0, 0.0, 2.0),
         (_S, 4, 1e-10, _S4, 2.0), (_S, 4, 1.0, _S4, 2.0),
         (_I, 8, 1e-10, 0.0, 2.0), (_I, 8, 1.0, 0.0, 2.0),
         (_S, 8, 1e-10, _S8, 2.0), (_S, 8, 1.0, _S8, 2.0)]),
    "low_regularity": (
        [dict(n=[4, 8])],
        [(_I, 4, 1e-10, 0.0, 0.0), (_S, 4, 1e-10, 0.25 ** 2, 0.0),
         (_I, 8, 1e-10, 0.0, 0.0), (_S, 8, 1e-10, 0.125 ** 2, 0.0),
         (_I, 4, 1e-10, 0.0, 2.0), (_S, 4, 1e-10, 0.25 ** 2, 2.0),
         (_I, 8, 1e-10, 0.0, 2.0), (_S, 8, 1e-10, 0.125 ** 2, 2.0)]),
}


@pytest.mark.parametrize("kind", sorted(_GRID_ORDER))
def test_h_convergence_grid_order(kind):
    # every sweep keeps its grid order; sigma reaches only the stabilized
    # scheme, the inflow scheme records 0 whatever the sigma rule
    sections, expected = _GRID_ORDER[kind]
    records = [r for overrides in sections for r in run_study(
        StudyConfig(kind.removesuffix("_ladder"), family="q1", **overrides))]
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
    groups = itertools.groupby(sweep_specs(cfg), key=lambda s: s.operators_key)
    return [[scheme for scheme, _ in itertools.groupby(s.scheme for s in specs)]
            for _, specs in groups]


@pytest.mark.parametrize("cfg", [StudyConfig(kind) for kind, study in STUDIES.items()
                                 if study.runner is None]
                         + [StudyConfig("sigma_sweep", n=[5, 10, 20, 40, 80],
                                        eps=[1e-10], alpha=[2.0])],
                         ids=lambda cfg: cfg.kind + ("_ladder" if cfg.n else ""))
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
        return ProblemSpec(scheme, eps, field, case_id,
                           sigma=sigma, family="q1", n=16)

    ops = SchemeOperators(spec("smooth").build_mesh(), field, "q1")
    run_instance(spec("low_reg"), ops)
    reused = run_instance(spec("smooth"), ops)
    fresh = run_instance(spec("smooth"))
    for name in StudyRecord.__dataclass_fields__:
        if name != "wall_time_seconds":
            assert getattr(reused, name) == getattr(fresh, name), name


def test_low_regularity_uses_h_squared():
    cfg = StudyConfig("low_regularity", scheme=["stabilized"], n=[8], alpha=[0.0])
    rec = run_study(cfg)[0]
    assert rec.sigma == pytest.approx(rec.h ** 2)


def test_infsup_probe_baseline_and_oddity():
    out = run_study(StudyConfig("infsup_probe", n=[4]))
    assert out[0][0] == 4
    assert out[0][1] == pytest.approx(INFSUP_RATIO_N4, rel=1e-9)
    with pytest.raises(ValueError):
        run_study(StudyConfig("infsup_probe", n=[5]))


def test_dual_norm_check_analytic_values():
    assert separated_mode_ratio(1) == pytest.approx(0.8602325, rel=1e-6)
    assert separated_mode_ratio(4) == pytest.approx(0.4144451, rel=1e-6)
    vals = [separated_mode_ratio(k) for k in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_oracle_regression_point():
    cfg = StudyConfig("oracle_validation", family="q2", n=[16])
    rec = run_study(cfg)[0]
    assert rec.solve_status == "OK"
    # frozen from a reference run of this implementation
    assert rec.err_L2_abs == pytest.approx(9.654e-11, rel=0.05)


def test_dual_norm_check_fast_path():
    out = run_study(StudyConfig("dual_norm_check", n=[16], k=[1, 2]))
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
    out = run_study(StudyConfig("dual_norm_check", n=[16], k=[1, 2, 3, 4]))
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
        assert ratio == np.sqrt(max(np.sum(v * b), 0.0)) / parallel_seminorm(q, ops.P)


def test_xi_against_mode_series():
    # the discrete auxiliary variable approaches its closed-form series
    from anisofem.schemes import build_system, solve_scheme

    f = FourierRhs.from_modes([(1, 1, 1.0)])
    eps, sigma = 1e-10, 1e-6
    field = FieldSpec("aligned_e2")
    spec = ProblemSpec("stabilized", eps, field, f, sigma=sigma,
                       family="q2", n=32, Lx=np.pi, Ly=np.pi)
    sol = spec.solution
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

    def functional(self, field):
        return LinearFunctional(source=lambda x, y: 1.0 + x * y)


class _LimitReferenceCase(ManufacturedCase):
    """A manufactured case measured against its eps -> 0 limit."""

    def u(self, x, y):
        return self.u_limit(x, y)

    def grad_u(self, x, y):
        return self.grad_u_limit(x, y)


def test_operator_memos_match_fresh_operators():
    # one operator set through changes of case, eps and scheme, with a case
    # of another load and one of another reference in between, back to the
    # first spec: every record equals the one from fresh operators
    field = FieldSpec("variable_alpha", 2.0)

    def spec(scheme, case_id, eps, case_type=None):
        case = case_id if case_type is None else case_type(case_id, 2.0, eps)
        return ProblemSpec(scheme, eps, field, case,
                           sigma=1e-4 if scheme == "stabilized" else 0.0,
                           family="q1", n=8)

    first = spec("inflow", "smooth", 1e-10)
    runs = [first,
            spec("stabilized", "smooth", 1e-10),
            spec("inflow", "smooth", 1e-4),
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
    # another eps, another load and another reference each give another
    # record than the memo's entry would
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
    # memos key on the bound cases, so a mode solution compared by value
    # (its coefficient arrays) would raise here.
    field = FieldSpec("aligned_e2")
    eps, sigma = 1e-4, 1e-3
    specs = [ProblemSpec("stabilized", eps, field, case, sigma=sigma,
                         family="q1", n=8, Lx=np.pi, Ly=np.pi)
             for case in (FourierRhs.from_modes([(1, 1, 1.0), (2, 3, -0.5)]),
                          FourierRhs.from_modes([(1, 2, 0.7), (3, 0, 0.25)]),
                          "smooth")]
    ops = SchemeOperators(specs[0].build_mesh(), field, "q1")
    records = {}
    for i in (0, 1, 2, 0, 2, 1, 1):
        reused = run_instance(specs[i], ops)
        fresh = run_instance(specs[i])
        for name in StudyRecord.__dataclass_fields__:
            if name != "wall_time_seconds":
                assert getattr(reused, name) == getattr(fresh, name), name
        records[i] = reused
    errors = {record.err_L2_abs for record in records.values()}
    assert len(errors) == 3


def test_mode_specs_of_one_recipe_share_the_memos(monkeypatch):
    # three specs bind one FourierRhs at one eps and sigma: their solutions
    # compare equal, so the set assembles one load and one exact-value array
    calls = {"assemble_rhs": 0, "exact_values": 0}
    for name in calls:
        def counted(*args, _original=getattr(schemes, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(schemes, name, counted)
    field = FieldSpec("aligned_e2")
    rhs = FourierRhs.from_modes([(1, 1, 1.0), (2, 3, -0.5)])
    specs = [ProblemSpec("stabilized", 1e-4, field, rhs, sigma=1e-3, family="q1",
                         n=8, Lx=np.pi, Ly=np.pi) for _ in range(3)]
    assert specs[0].solution == specs[2].solution
    assert hash(specs[0].solution) == hash(specs[2].solution)
    ops = SchemeOperators(specs[0].build_mesh(), field, "q1")
    reused = [run_instance(spec, ops) for spec in specs]
    assert calls == {"assemble_rhs": 1, "exact_values": 1}
    for spec, record in zip(specs, reused):
        fresh = run_instance(spec)
        for name in StudyRecord.__dataclass_fields__:
            if name != "wall_time_seconds":
                assert getattr(record, name) == getattr(fresh, name), name
