"""Benchmark workloads: seeded study configs and their correctness checks.

Each workload is one ``anisofem run`` configuration.  Seed 0 writes the
canonical grid; any other seed redraws every eps/sigma grid value
log-uniformly inside the decade that ends at its canonical value, i.e. a
canonical 10^k becomes 10^(k - u) with u uniform in [0, 1).  Resolutions,
schemes, alphas and the number of grid points never change with the seed.
Values that are not decade samples stay fixed: eps = 1 (the isotropic,
decoupled regime of the sigma sweep) and the fixed sigma = 1e-6 of the
eps sweep, which is the value criterion 4 prescribes.

This module is plain Python so run.py can generate inputs
without importing the library; the checks run in the workload process on
records parsed by ``anisofem.studies.read_csv``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Criterion 4 bounds the absolute L2 span over eps by 10% at n = 100,
# where this program measures 9.0% (stabilized).  The workload runs the
# same grid at n = 50, where the same program measures 6.6% (inflow) and
# 11.3% (stabilized) at seed 0, so the half-resolution check allows 15%.
EPS_SPAN_MAX = 1.15
# Criterion 6: flat span and plateau within 1%, as in the acceptance test.
FLAT_SPAN_MAX = 1.01
PLATEAU_DEV_MAX = 0.01
# Criterion 10: observed L2 orders and the bound on the aligned qH1 spread.
LOWREG_ORDER = (1.7, 2.3)
LOWREG_QH1_SPAN_MAX = 1.10
# The sigma sweep's near-singular tail: sigma decades -11 and below, where
# the scheme's pivot test (smallest pivot against 1e-16 * max|A|) can fire.
# In seeds 0-50 at n = 30 the SINGULAR points were decades -12..-15 of
# the eps = 1e-10, alpha = 0 regime, decades -13..-14 of the alpha = 2
# regime and decade -11 of the eps = 1 regime (14 of the 51 seeds); none
# above it.  A SINGULAR point above the tail fails the run.
SINGULAR_TAIL_DECADE = 11


@dataclass(frozen=True)
class Row:
    """One expected output row: the grid point the study must report."""

    scheme: str
    n: int
    eps: float
    sigma: float
    alpha: float
    group: str                 # rows checked together
    decade: int = 0            # sigma decade index, for the sigma sweep
    singular_ok: bool = False  # in the near-singular tail probed on purpose


@dataclass(frozen=True)
class Section:
    name: str
    keys: tuple                # (key, value text) pairs
    rows: tuple


def _draw(rng: random.Random, canonical: float, seed: int) -> float:
    if seed == 0:
        return canonical
    return canonical * 10.0 ** (-rng.random())


def _fmt(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


# -- the three workloads ---------------------------------------------------


def _eps_q2_n50(seed: int) -> list[Section]:
    rng = random.Random(seed)
    eps_list = [_draw(rng, e, seed) for e in (1e-20, 1e-12, 1e-8, 1e-4, 1e-2)]
    sigma, n, alpha = 1e-6, 50, 2.0
    rows = tuple(Row(s, n, e, sigma if s == "stabilized" else 0.0, alpha, s)
                 for s in ("inflow", "stabilized") for e in eps_list)
    keys = (("study", "eps_sweep"), ("scheme", "[inflow, stabilized]"),
            ("family", "q2"), ("n", f"[{n}]"), ("alpha", _fmt([alpha])),
            ("eps", _fmt(eps_list)), ("sigma", repr(sigma)))
    return [Section("eps", keys, rows)]


def _sigma_q2_n30(seed: int) -> list[Section]:
    # the three regimes of the default sigma sweep, one section each so
    # that each keeps its own (eps, alpha) pair
    rng = random.Random(seed)
    sigmas = [_draw(rng, 10.0 ** -i, seed) for i in range(16)]
    regimes = (("flat", 1.0, 0.0), ("plateau", _draw(rng, 1e-10, seed), 0.0),
               ("ushape", _draw(rng, 1e-10, seed), 2.0))
    n = 30
    sections = []
    for group, eps, alpha in regimes:
        rows = tuple(Row("stabilized", n, eps, s, alpha, group, -i,
                         i >= SINGULAR_TAIL_DECADE)
                     for i, s in enumerate(sigmas))
        keys = (("study", "sigma_sweep"), ("family", "q2"), ("n", f"[{n}]"),
                ("eps", _fmt([eps])), ("alpha", _fmt([alpha])),
                ("sigma", _fmt(sigmas)))
        sections.append(Section(group, keys, rows))
    return sections


def _lowreg_q1_n128(seed: int) -> list[Section]:
    rng = random.Random(seed)
    eps = _draw(rng, 1e-10, seed)
    n_list, alphas = (16, 32, 64, 128), (0.0, 2.0)
    rows = tuple(Row(s, n, eps, (1.0 / n) ** 2.0 if s == "stabilized" else 0.0,
                     a, f"{s}/alpha={a:g}")
                 for a in alphas for n in n_list for s in ("inflow", "stabilized"))
    keys = (("study", "low_regularity"), ("scheme", "[inflow, stabilized]"),
            ("family", "q1"), ("n", "[" + ", ".join(map(str, n_list)) + "]"),
            ("alpha", _fmt(alphas)), ("eps", _fmt([eps])), ("sigma", "h^2"))
    return [Section("lowreg", keys, rows)]


# -- checks -----------------------------------------------------------------


def _check_eps(rows, recs):
    bad = []
    for scheme in ("inflow", "stabilized"):
        idx = [i for i, r in enumerate(rows) if r.group == scheme]
        errs = [recs[i].err_L2_abs for i in idx]
        span = max(errs) / min(errs)
        if not span <= EPS_SPAN_MAX:
            bad.append((idx, f"{scheme}: L2 span over eps {span - 1:.1%} "
                             f"> {EPS_SPAN_MAX - 1:.0%}"))
    return bad


def _check_sigma(rows, recs):
    bad = []
    by_group = {}
    for i, r in enumerate(rows):
        by_group.setdefault(r.group, {})[r.decade] = i

    def err(group, decade):
        i = by_group[group][decade]
        return recs[i].err_L2_abs if recs[i].solve_status == "OK" else None

    flat = [i for i in by_group["flat"].values() if recs[i].solve_status == "OK"]
    errs = [recs[i].err_L2_abs for i in flat]
    if not errs or not max(errs) / min(errs) <= FLAT_SPAN_MAX:
        bad.append((list(by_group["flat"].values()), "eps=1 span above 1%"))
    # criterion 6 compares sigma = 1e-8 with 1e-12; at n = 30 the lower
    # decades of that range can be SINGULAR, so the plateau spans the OK ones
    plateau = [e for e in (err("plateau", d) for d in range(-12, -7)) if e is not None]
    if err("plateau", -8) is None or len(plateau) < 2 \
            or not max(plateau) / min(plateau) - 1.0 <= PLATEAU_DEV_MAX:
        bad.append((list(by_group["plateau"].values()),
                    "aligned plateau over sigma decades -12..-8 off by more than 1%"))
    # criterion 6's U-shape: e(1e-6) below e(1e-1) and e(1e-14); the tail
    # decades -14..-12 can be SINGULAR at n = 30, so the right arm is every
    # OK point among them
    e1, e6 = err("ushape", -1), err("ushape", -6)
    tail = [e for e in (err("ushape", d) for d in range(-14, -11)) if e is not None]
    if None in (e1, e6) or not tail or not (e6 < e1 and e6 < min(tail)):
        bad.append((list(by_group["ushape"].values()),
                    "no U-shape over sigma decades -1, -6 and the OK points of -14..-12"))
    return bad


def _check_lowreg(rows, recs):
    bad = []
    lo, hi = LOWREG_ORDER
    for group in dict.fromkeys(r.group for r in rows):
        idx = sorted((i for i, r in enumerate(rows) if r.group == group),
                     key=lambda i: rows[i].n)
        h = [1.0 / rows[i].n for i in idx]
        e = [recs[i].err_L2_abs for i in idx]
        orders = [math.log(e[k] / e[k + 1]) / math.log(h[k] / h[k + 1])
                  for k in range(len(idx) - 1)]
        if not all(lo <= o <= hi for o in orders):
            bad.append((idx, f"{group}: L2 orders {orders} outside [{lo}, {hi}]"))
        qh1 = [recs[i].q_or_xi_H1_norm for i in idx]
        if rows[idx[0]].alpha == 2.0:
            if not all(a < b for a, b in zip(qh1, qh1[1:])):
                bad.append((idx, f"{group}: qH1 not increasing under refinement"))
        elif not max(qh1) / min(qh1) <= LOWREG_QH1_SPAN_MAX:
            bad.append((idx, f"{group}: qH1 spread above 10%"))
    return bad


def csv_path(outdir: str, section: Section) -> str:
    return os.path.join(outdir, f"{section.name}.csv")


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json and README.md say why it was chosen."""

    name: str
    sections: Callable[[int], list[Section]]
    check: Callable                # (rows, records) -> [(row indices, message)]

    def write_config(self, seed: int, outdir: str) -> None:
        """Write ``study.cfg`` into outdir, each section's CSV beside it."""
        lines = []
        for sec in self.sections(seed):
            lines.append(f"[{sec.name}]")
            lines += [f"{k} = {v}" for k, v in sec.keys]
            lines += [f"output = {csv_path(outdir, sec)}", ""]
        with open(os.path.join(outdir, "study.cfg"), "w", newline="\n") as fh:
            fh.write("\n".join(lines))


WORKLOADS = {w.name: w for w in (
    Workload("eps_q2_n50", _eps_q2_n50, _check_eps),
    Workload("sigma_q2_n30", _sigma_q2_n30, _check_sigma),
    Workload("lowreg_q1_n128", _lowreg_q1_n128, _check_lowreg),
)}


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12)


def check_records(workload: Workload, rows, recs) -> tuple[list[bool], list[str]]:
    """Per-row failure flags and messages for one study run.

    A row fails when it is missing, does not match its grid point, is
    SINGULAR outside the near-singular tail, holds a non-finite or
    non-positive value in an OK row, or belongs to a group whose criterion
    check misses.  The CSV's wall_time_seconds must be finite and >= 0.
    """
    failed = [False] * len(rows)
    msgs = []
    if len(recs) != len(rows):
        msgs.append(f"{len(recs)} rows written, {len(rows)} expected")
        return [True] * len(rows), msgs
    for i, (row, rec) in enumerate(zip(rows, recs)):
        if not (rec.scheme == row.scheme and rec.n == row.n
                and _same(rec.eps, row.eps) and _same(rec.sigma, row.sigma)
                and _same(rec.alpha, row.alpha)):
            failed[i] = True
            msgs.append(f"row {i} is {rec.scheme} n={rec.n} eps={rec.eps} "
                        f"sigma={rec.sigma} alpha={rec.alpha}, expected {row}")
        elif not (math.isfinite(rec.wall_time_seconds) and rec.wall_time_seconds >= 0):
            failed[i] = True
            msgs.append(f"row {i}: wall_time_seconds {rec.wall_time_seconds}")
        elif rec.solve_status == "SINGULAR":
            if not row.singular_ok:
                failed[i] = True
                msgs.append(f"row {i}: SINGULAR outside the near-singular tail")
        elif rec.solve_status != "OK":
            failed[i] = True
            msgs.append(f"row {i}: status {rec.solve_status!r}")
        else:
            vals = (rec.err_L2_abs, rec.err_H1_abs, rec.err_L2_rel, rec.err_H1_rel,
                    rec.q_or_xi_L2_norm, rec.q_or_xi_H1_norm, rec.cond1)
            if not all(math.isfinite(v) and v > 0 for v in vals):
                failed[i] = True
                msgs.append(f"row {i}: non-finite or non-positive value in {vals}")
    if any(failed):
        return failed, msgs
    for idx, msg in workload.check(rows, recs):
        msgs.append(msg)
        for i in idx:
            failed[i] = True
    return failed, msgs
