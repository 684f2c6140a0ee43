"""End-to-end acceptance suite.

Each test covers one numbered criterion, reproduces the corresponding
reference experiment at its stated tolerance, and prints one PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Where a criterion's points lie in a default study, it reads them from
the CSV that ``anisofem run`` writes for that study, which is also
compared with its reference.  The whole module takes about 40 s on two
cores; the robustness sweep and the default sigma sweep dominate.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anisofem.fields import FieldSpec
from anisofem.geometry import build_quad_mesh
from anisofem.schemes import ProblemSpec, SchemeOperators
from anisofem.spectral import FourierRhs, sobolev_seminorm, spectral_solve
from anisofem.studies import (STUDIES, StudyConfig, loglog_slope,
                              observed_orders, read_csv, record_h, run_instance,
                              run_study)
from reference_outputs import compare, read_rows, run_defaults, version_mismatch

# Reference L2/H1 relative errors (both reformulations, sigma = h^3) on the
# ladder h = 0.1 / 2^k of dof spacings, i.e. 5..80 cells for the Q2 family.
H_LADDER = [0.1, 0.05, 0.025, 0.0125, 0.00625]
N_LADDER = [5, 10, 20, 40, 80]

TABLE_L2 = {
    (1.0, 0.0): {"inflow": [5.39e-3, 6.97e-4, 8.79e-5, 1.10e-5, 1.38e-6],
                 "stabilized": [5.39e-3, 6.97e-4, 8.79e-5, 1.10e-5, 1.38e-6]},
    (1e-10, 0.0): {"inflow": [1.19e-3, 1.49e-4, 1.86e-5, 2.33e-6, 2.91e-7],
                   "stabilized": [1.19e-3, 1.49e-4, 1.86e-5, 2.33e-6, 2.91e-7]},
    (1e-10, 2.0): {"inflow": [2.81e-3, 3.16e-4, 3.77e-5, 4.57e-6, 5.60e-7],
                   "stabilized": [2.18e-3, 2.87e-4, 3.53e-5, 4.31e-6, 5.29e-7]},
}
TABLE_H1 = {
    (1.0, 0.0): {"inflow": [4.48e-2, 1.13e-2, 2.84e-3, 7.11e-4, 1.78e-4],
                 "stabilized": [4.48e-2, 1.13e-2, 2.84e-3, 7.11e-4, 1.78e-4]},
    (1e-10, 0.0): {"inflow": [1.46e-2, 3.67e-3, 9.19e-4, 2.30e-4, 5.75e-5],
                   "stabilized": [1.46e-2, 3.67e-3, 9.19e-4, 2.30e-4, 5.75e-5]},
    (1e-10, 2.0): {"inflow": [2.44e-2, 6.34e-3, 1.60e-3, 3.99e-4, 9.93e-5],
                   "stabilized": [2.33e-2, 6.12e-3, 1.54e-3, 3.83e-4, 9.53e-5]},
}
REGIMES = list(TABLE_L2)
SCHEMES = ("inflow", "stabilized")


@pytest.fixture(scope="module")
def default_output(tmp_path_factory):
    """The CSV that ``anisofem run`` writes for a section that sets only
    ``study = <kind>``; each kind runs once, when a test first asks for
    it.  Its output is also compared with its reference in
    tests/reference (see tests/reference_outputs.py)."""
    directory = tmp_path_factory.mktemp("defaults")
    return functools.cache(lambda kind: run_defaults([kind], directory)[kind])


def _report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def table_records(default_output):
    records = read_csv(default_output("h_convergence"))
    out = {}
    for (eps, alpha) in REGIMES:
        for scheme in SCHEMES:
            sel = [r for r in records
                   if r.eps == eps and r.alpha == alpha and r.scheme == scheme]
            sel.sort(key=lambda r: -r.h)
            assert [r.n for r in sel] == N_LADDER
            assert all(r.solve_status == "OK" for r in sel)
            out[(eps, alpha, scheme)] = sel
    return out


def _worst_factor(values, reference):
    ratios = [v / r for v, r in zip(values, reference)]
    return max(max(ratios), 1.0 / min(ratios))


def test_criterion_1_table_l2(table_records):
    worst = 0.0
    total = time_sum = 0.0
    for (eps, alpha), per_scheme in TABLE_L2.items():
        for scheme, ref in per_scheme.items():
            sel = table_records[(eps, alpha, scheme)]
            worst = max(worst, _worst_factor([r.err_L2_rel for r in sel], ref))
            time_sum += sum(r.wall_time_seconds for r in sel)
            total += len(sel)
    ok = worst <= 1.5 and time_sum <= 600.0
    assert _report(1, ok, f"L2 table: worst factor {worst:.3f} over {total:.0f} "
                          f"entries, solve time {time_sum:.0f}s"), worst


def test_criterion_2_table_h1(table_records):
    worst = 0.0
    for (eps, alpha), per_scheme in TABLE_H1.items():
        for scheme, ref in per_scheme.items():
            sel = table_records[(eps, alpha, scheme)]
            worst = max(worst, _worst_factor([r.err_H1_rel for r in sel], ref))
    ok = worst <= 1.5
    assert _report(2, ok, f"H1 table: worst factor {worst:.3f}"), worst


def test_criterion_3_convergence_orders(table_records):
    l2_orders, h1_orders = [], []
    for key, sel in table_records.items():
        hs = [r.h for r in sel]
        l2_orders += observed_orders(hs, [r.err_L2_rel for r in sel])
        h1_orders += observed_orders(hs, [r.err_H1_rel for r in sel])
    ok = (all(2.7 <= o <= 3.3 for o in l2_orders)
          and all(1.8 <= o <= 2.2 for o in h1_orders))
    assert _report(3, ok, f"orders: L2 in [{min(l2_orders):.2f}, "
                          f"{max(l2_orders):.2f}], H1 in [{min(h1_orders):.2f}, "
                          f"{max(h1_orders):.2f}]")


def test_criterion_4_eps_robustness():
    cfg = StudyConfig("eps_sweep", n=[100],
                      eps=[1e-20, 1e-12, 1e-8, 1e-4, 1e-2],
                      sigma=[("fixed", 1e-6)])
    records = run_study(cfg)
    spans, total_time = {}, 0.0
    for scheme in SCHEMES:
        errs = [r.err_L2_abs for r in records if r.scheme == scheme]
        spans[scheme] = max(errs) / min(errs)
        total_time += sum(r.wall_time_seconds for r in records
                          if r.scheme == scheme)
    ok = all(s <= 1.10 for s in spans.values()) and total_time <= 120.0
    assert _report(4, ok, "absolute L2 variation over 18 decades of eps: "
                          + ", ".join(f"{k} {v - 1:.1%}" for k, v in spans.items())
                          + f"; solve time {total_time:.0f}s")


def test_criterion_5_conditioning(default_output):
    records = read_csv(default_output("conditioning"))
    slopes = {}
    for scheme in SCHEMES:
        sel = [r for r in records if r.scheme == scheme]
        slopes[scheme] = loglog_slope([r.h for r in sel], [r.cond1 for r in sel])
    field = FieldSpec("variable_alpha", 2.0)
    ops = SchemeOperators(build_quad_mesh(40, 40), field, "q2")
    conds = []
    for eps in (1e-4, 1e-12):
        rec = run_instance(ProblemSpec("inflow", eps, field, "smooth",
                                       family="q2", n=40), ops)
        conds.append(rec.cond1)
    eps_ratio = max(conds) / min(conds)
    ok = (-4.6 <= slopes["inflow"] <= -3.4
          and -5.6 <= slopes["stabilized"] <= -4.4
          and eps_ratio <= 2.0)
    assert _report(5, ok, f"cond1 slopes inflow {slopes['inflow']:.2f}, "
                          f"stabilized {slopes['stabilized']:.2f}; inflow "
                          f"eps-ratio {eps_ratio:.2f}")


def test_criterion_6_sigma_sweep_shape(default_output):
    n = 50                       # dof spacing 0.01 for the Q2 family
    points = {(r.n, r.eps, r.alpha, r.sigma): r
              for r in read_csv(default_output("sigma_sweep"))}
    details = []

    def sweep(eps, alpha, sigmas):
        recs = [points[(n, eps, alpha, sigma)] for sigma in sigmas]
        assert all(r.solve_status == "OK" for r in recs)
        return {r.sigma: r.err_L2_abs for r in recs}

    flat = sweep(1.0, 0.0, [1.0, 1e-5, 1e-10, 1e-15])
    flat_span = max(flat.values()) / min(flat.values())
    details.append(f"eps=1 span {flat_span - 1:.2e}")
    ok = flat_span <= 1.01

    plateau = sweep(1e-10, 0.0, [1e-8, 1e-12])
    plateau_dev = abs(plateau[1e-8] / plateau[1e-12] - 1.0)
    details.append(f"aligned plateau deviation {plateau_dev:.2e}")
    ok = ok and plateau_dev <= 0.01

    ushape = sweep(1e-10, 2.0, [1e-1, 1e-6, 1e-14])
    details.append(f"U-shape {ushape[1e-1]:.2e} > {ushape[1e-6]:.2e} < "
                   f"{ushape[1e-14]:.2e}")
    ok = ok and ushape[1e-6] < ushape[1e-1] and ushape[1e-6] < ushape[1e-14]
    assert _report(6, ok, "; ".join(details))


def test_criterion_7_spectral_oracle(default_output):
    # the default run holds both families on (0, pi)^2; h tells them apart
    points = {(r.n, r.h): r for r in read_csv(default_output("oracle_validation"))}
    orders = {}
    for family, n_list in (("q1", [8, 16, 32, 64]), ("q2", [8, 16, 32])):
        recs = [points[(n, record_h(family, n, np.pi))] for n in n_list]
        obs = observed_orders([r.h for r in recs], [r.err_L2_abs for r in recs])
        orders[family] = obs
    ok = (all(abs(o - 2.0) <= 0.3 for o in orders["q1"])
          and all(abs(o - 3.0) <= 0.3 for o in orders["q2"]))

    rng = np.random.default_rng(123)
    violations = 0
    for _ in range(100):
        modes = [(int(rng.integers(1, 10)), int(rng.integers(0, 10)),
                  float(rng.standard_normal()))
                 for _ in range(rng.integers(1, 6))]
        f = FourierRhs.from_modes(modes)
        eps, sigma = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        if eps == 0.0 and sigma == 0.0:
            sigma = 0.1
        sol = spectral_solve(f, eps, sigma)
        kk = f.k.astype(float) ** 2 + f.l.astype(float) ** 2
        if np.any(kk * np.abs(sol.u_coeff) > np.abs(f.coeff) * (1 + 1e-12)):
            violations += 1
        if np.any(np.abs(sol.xi_coeff) > np.abs(f.coeff) * (1 + 1e-12)):
            violations += 1
        s = float(rng.uniform(0, 2))
        u_modes = list(zip(f.k, f.l, sol.u_coeff))
        if sobolev_seminorm(u_modes, s + 2) > sobolev_seminorm(f, s) * (1 + 1e-12):
            violations += 1
    ok = ok and violations == 0
    assert _report(7, ok, f"FEM-vs-series orders q1 {min(orders['q1']):.2f}.."
                          f"{max(orders['q1']):.2f}, q2 {min(orders['q2']):.2f}.."
                          f"{max(orders['q2']):.2f}; regularity violations "
                          f"{violations}/100")


def test_criterion_8_dual_norm_ratio(default_output):
    _, *rows = read_rows(default_output("dual_norm_check"))
    worst = max(abs(float(c) / float(a) - 1.0) for _, c, a in rows)
    ok = worst <= 0.02
    assert _report(8, ok, f"dual-norm ratio vs closed form, worst deviation "
                          f"{worst:.2e} over k=1..4 at 128 cells")


def test_criterion_9_infsup_probe(default_output):
    _, *rows = read_rows(default_output("infsup_probe"))
    out = {int(n): float(ratio) for n, ratio in rows}
    ok = (all(0.0 < v <= 1.0 + 1e-8 for v in out.values())
          and out[32] < out[8])
    assert _report(9, ok, "coarse/fine Riesz ratios "
                          + ", ".join(f"n={n}: {v:.3f}" for n, v in out.items()))


def test_criterion_10_low_regularity(default_output):
    records = read_csv(default_output("low_regularity"))
    details, ok = [], True
    for alpha in (0.0, 2.0):
        for scheme in SCHEMES:
            sel = [r for r in records if r.alpha == alpha and r.scheme == scheme]
            sel.sort(key=lambda r: -r.h)
            qh1 = [r.q_or_xi_H1_norm for r in sel]
            orders = observed_orders([r.h for r in sel],
                                     [r.err_L2_abs for r in sel])
            ok = ok and all(1.7 <= o <= 2.3 for o in orders)
            if alpha == 2.0:
                ok = ok and all(a < b for a, b in zip(qh1, qh1[1:]))
            else:
                ok = ok and max(qh1) / min(qh1) <= 1.10
            details.append(f"a={alpha:g} {scheme}: qH1 {qh1[0]:.3g}->{qh1[-1]:.3g}, "
                           f"L2 order {min(orders):.2f}..{max(orders):.2f}")
    assert _report(10, ok, "; ".join(details))


def test_criterion_11_property_suite():
    import time

    from anisofem.checks import run_checks

    t0 = time.perf_counter()
    ok = run_checks(verbose=False)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 60.0
    assert _report(11, ok, f"invariant suite in {elapsed:.1f}s")


@pytest.mark.parametrize("kind", list(STUDIES))
def test_default_output_matches_reference(kind, default_output):
    moved = compare(kind, read_rows(default_output(kind)))
    assert not moved, "\n".join(version_mismatch() + moved)


@pytest.mark.parametrize("threads", ["1", None], ids=["one_thread", "default"])
def test_riesz_outputs_do_not_depend_on_blas_threads(threads):
    # both sum a Riesz energy over up to 65,535 unknowns; as a BLAS dot that
    # sum moved dual_norm_check by up to 4.02e-16 under one thread
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    script = Path(__file__).resolve().parent / "reference_outputs.py"
    done = subprocess.run([sys.executable, str(script), "dual_norm_check",
                           "infsup_probe"], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
