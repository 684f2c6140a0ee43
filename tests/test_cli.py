import importlib
import re
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from anisofem import studies
from anisofem.cli import main
from anisofem.config import ConfigError, load_config, parse_value
from anisofem.fields import CASE_IDS
from reference_outputs import (REFERENCE_DIR, compare, compare_check, read_rows,
                               version_mismatch)


def test_parse_value_kinds():
    assert parse_value("3") == 3
    assert parse_value("2.5e-3") == 2.5e-3
    assert parse_value("true") is True
    assert parse_value("inflow") == "inflow"
    assert parse_value("[1, 2, 4]") == [1, 2, 4]
    assert parse_value("[[1, 1, 1.0], [2, 0, -0.5]]") == [[1, 1, 1.0], [2, 0, -0.5]]
    assert parse_value("[inflow, stabilized]") == ["inflow", "stabilized"]


@pytest.mark.parametrize("text", ["[4, 8", "[[1, 1, 1.0], [2", "[inflow, [stabilized]",
                                  "[inflow]]"])
def test_parse_value_rejects_unclosed_or_nested_word_lists(text):
    with pytest.raises(ConfigError):
        parse_value(text)


def _write(tmp_path, text, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_full_section(tmp_path):
    path = _write(tmp_path, """
[tables]
study = h_convergence
scheme = [inflow, stabilized]
family = q2
n = [5, 10]
eps = [1, 1e-10]
alpha = [0, 2]
sigma = h^3
output = out/tables.csv
plot = out/tables.gp
""")
    items = load_config(path)
    assert len(items) == 1
    cfg = items[0].config
    assert cfg.kind == "h_convergence"
    assert cfg.scheme == ["inflow", "stabilized"]
    assert cfg.sigma == [("power", 3.0)]
    assert cfg.n == [5, 10]
    assert items[0].output == "out/tables.csv"


def test_load_config_fixed_sigma_and_modes(tmp_path):
    path = _write(tmp_path, """
[oracle]
study = oracle_validation
family = q2
n = [8, 16]
eps = 1e-10
sigma = 1e-6
modes = [[1, 1, 1.0]]
""")
    cfg = load_config(path)[0].config
    assert cfg.sigma == [("fixed", 1e-6)]
    assert cfg.modes == [[1, 1, 1.0]]


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[s]\nstudy = nope\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[s]\nstudy = eps_sweep\nbogus_key = 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "# no sections\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[s]\nstudy = eps_sweep\nscheme = nope\n"))


def test_cli_list_studies(capsys):
    assert main(["list-studies"]) == 0
    out = capsys.readouterr().out
    assert "sigma_sweep" in out and "dual_norm_check" in out


def test_cli_run_writes_outputs(tmp_path, capsys):
    out_csv = tmp_path / "run" / "ladder.csv"
    out_gp = tmp_path / "run" / "ladder.gp"
    cfg = _write(tmp_path, f"""
[ladder]
study = h_convergence
scheme = [inflow]
family = q1
n = [4, 8]
eps = [1]
alpha = [0]
output = {out_csv}
plot = {out_gp}
""")
    assert main(["run", cfg]) == 0
    assert out_csv.exists() and out_gp.exists()
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3


def test_cli_runs_leave_no_thread_behind(tmp_path):
    # the library starts no thread
    cfg = _write(tmp_path, f"""
[sweep]
study = eps_sweep
scheme = [inflow, stabilized]
family = q1
n = 8
eps = [1e-10, 1]
output = {tmp_path / "sweep.csv"}
""")
    before = set(threading.enumerate())
    for _ in range(2):
        assert main(["run", cfg]) == 0
        assert set(threading.enumerate()) <= before


def test_cli_run_tuple_study(tmp_path):
    out_csv = tmp_path / "probe.csv"
    cfg = _write(tmp_path, f"""
[probe]
study = dual_norm_check
n = [8]
k = [1]
output = {out_csv}
""")
    assert main(["run", cfg]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,computed_ratio,analytic_ratio"
    assert len(lines) == 2


def test_cli_record_study_without_records_writes_record_header(tmp_path,
                                                               monkeypatch):
    # the output format follows the study kind, not the first result
    entry = replace(studies.STUDIES["low_regularity"], runner=lambda cfg: [])
    monkeypatch.setitem(studies.STUDIES, "low_regularity", entry)
    out_csv = tmp_path / "empty.csv"
    cfg = _write(tmp_path, f"[empty]\nstudy = low_regularity\noutput = {out_csv}\n")
    assert main(["run", cfg]) == 0
    assert out_csv.read_text() == ",".join(studies._RECORD_FIELDS) + "\n"
    assert studies.read_csv(out_csv) == []


def test_cli_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 3
    bad = _write(tmp_path, "[s]\nstudy = nope\n")
    assert main(["run", bad]) == 1
    strict = _write(tmp_path, """
[fails]
study = sigma_sweep
family = q1
n = [4]
eps = [0]
alpha = [0]
sigma = [0]
strict = true
""", name="strict.cfg")
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", strict]) == 2


def test_cli_config_is_read_as_utf8(tmp_path, capsys):
    # UTF-8 text loads whatever the locale; another encoding's byte is a
    # one-line configuration error, not a traceback
    body = "[probe]\nstudy = infsup_probe\nn = [4]\n"
    good = tmp_path / "utf8.cfg"
    good.write_bytes("# café\n".encode("utf-8") + body.encode())
    assert [item.name for item in load_config(good)] == ["probe"]
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"# caf\xe9\n" + body.encode())
    with pytest.raises(ConfigError):
        load_config(bad)
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_cli_rejects_power_sigma_for_oracle(tmp_path, capsys):
    # the mode solver has no mesh size, so h^p would silently become sigma = 0
    cfg = _write(tmp_path, """
[oracle]
study = oracle_validation
family = q1
n = [8]
sigma = h^2
""")
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert main(["run", cfg]) == 1
    assert "configuration error:" in capsys.readouterr().err


def test_cli_check_smoke(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "FAIL" not in out
    changed = compare_check(out)        # against tests/reference/check.txt
    assert not changed, "\n".join(version_mismatch() + changed)


def test_compare_counts_text_only_changes_apart():
    # a trailing 0 leaves the float as it is: it was reported as "largest
    # relative move 0"; it still fails the comparison, under its own count
    rows = read_rows(REFERENCE_DIR / "sigma_sweep.csv")
    assert compare("sigma_sweep", rows) == []
    j, k = rows[0].index("err_L2_abs"), rows[0].index("cond1")
    i = [row[j] for row in rows].index("0.012276432310682959")
    rows[i][j] += "0"
    rows[1][j] = repr(float(rows[1][j]) * 1.5)
    rows[2][k] = "+" + rows[2][k]
    # a flipped status is listed by its grid point, under its column's count
    s = rows[0].index("solve_status")
    flipped = [row[s] for row in rows].index("SINGULAR")
    rows[flipped][s] = "OK"
    assert compare("sigma_sweep", rows) == [
        "sigma_sweep.err_L2_abs: 1 of 48 values moved, largest relative move "
        "0.5; 1 of 48 values changed in text only, not in value",
        "sigma_sweep.cond1: 1 of 48 values changed in text only, not in value",
        "sigma_sweep.solve_status: 1 of 48 values moved, largest relative "
        "move n/a (text or nan)",
        "sigma_sweep.solve_status: SINGULAR -> OK at scheme stabilized, n 50, "
        "eps 1e-10, sigma 1e-13, alpha 0"]


# the first values used to end in a traceback, most of them partway
# through the run, or (alpha without eps) to be silently replaced by the
# three reference regimes
@pytest.mark.parametrize("body", [
    "study = h_convergence\nfamily = q3\nn = [4]",
    "study = eps_sweep\ncase = rough\nn = [4]",
    "study = infsup_probe\nn = [4, 5]",
    "study = eps_sweep\nfamily = q1\nn = [4]\nalpha = [5]",
    "study = h_convergence\nfamily = q1\nn = [4]\nalpha = [5]",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nalpha = [5]",
    "study = h_convergence\nfamily = q1\nn = [4]\nalpha = [2]",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nalpha = [0]",
    "study = dual_norm_check\nfamily = p1\nn = [8]",
    "study = h_convergence\nfamily = q1\nn = [0]",
    "study = eps_sweep\nfamily = q1\nn = [4]\neps = [-1]",
    "study = eps_sweep\nscheme = standard\nfamily = q1\nn = [4]\neps = [0, 1]",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nsigma = [1e-3, -1]",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = h^x",
    "study = oracle_validation\nfamily = q1\nn = [4]\nmodes = [1, 1, 1.0]",
    "study = dual_norm_check\nn = [8]\nk = [0]",
    # keys and values a study used to ignore silently, running something
    # other than what was asked
    "study = eps_sweep\nfamily = q1\nn = [4, 8]",
    "study = eps_sweep\nfamily = q1\nn = [4]\nalpha = [0, 2]",
    "study = low_regularity\nfamily = q1\nn = [4]\neps = [1e-10, 1e-4]",
    "study = oracle_validation\nfamily = q1\nn = [4]\neps = [1e-10, 1]",
    "study = conditioning\nfamily = q1\nn = [4]\nalpha = [0, 2]",
    "study = dual_norm_check\nn = [8, 16]",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nscheme = [inflow]",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = [1e-3, 1e-5]",
    "study = conditioning\nfamily = q1\nn = [4]\ncase = low_reg",
    "study = infsup_probe\nn = [4]\nplot = probe.gp",
    "study = infsup_probe\nn = [4]\nstrict = true",
    "study = dual_norm_check\nn = [8]\nplot = probe.gp",
    "study = dual_norm_check\nn = [8]\nstrict = true",
    # an empty list used to run the study's defaults (or, for alpha in
    # low_regularity, no instance at all)
    "study = eps_sweep\nfamily = q1\nn = [4]\neps = []",
    "study = eps_sweep\nfamily = q1\nn = [4]\nscheme = []",
    "study = eps_sweep\nfamily = q1\nn = []",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nsigma = []",
    "study = dual_norm_check\nn = [8]\nk = []",
    "study = low_regularity\nfamily = q1\nn = [4]\nalpha = []",
    "study = oracle_validation\nfamily = q1\nn = [4]\nmodes = []",
    # flags took any value as true, and numeric keys took true as 1
    "study = sigma_sweep\nfamily = q1\nn = [4]\nsigma = [1e-3]\nstrict = nope",
    "study = eps_sweep\nfamily = q1\nn = [4]\neps = [true]",
    "study = eps_sweep\nfamily = q1\nn = true",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = true",
    # a path is one path, not a list, and not empty: an empty plot wrote
    # a script that reads ''
    "study = eps_sweep\nfamily = q1\nn = [4]\nplot = [a.gp]",
    "study = eps_sweep\nfamily = q1\nn = [4]\nplot =",
    # non-finite values used to run and write SINGULAR rows
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = h^nan",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = h^inf",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = inf",
    "study = eps_sweep\nfamily = q1\nn = [4]\neps = [inf]",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nsigma = [1e-3, inf]",
    # an h^p rule that overflows at a resolution ended in an OverflowError
    # traceback after "running [bad] ..."
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = h^-1000",
    # an unterminated bracket used to read as if it were closed
    "study = h_convergence\nfamily = q1\nn = [4, 8",
    "study = oracle_validation\nfamily = q1\nn = [4]\nmodes = [[1, 1, 1.0], [2",
    # n = 1 leaves a degree-1 family no unknowns: lu_factor failed on the
    # empty system
    "study = h_convergence\nfamily = q1\nn = [1, 2]",
    "study = low_regularity\nn = [1]",
    "study = oracle_validation\nn = [1]",
    # no closed form: the run ended in a DegenerateSpectralProblem traceback
    "study = oracle_validation\nn = [2]\neps = [0.0]\nsigma = 0",
    # a fractional mode index ran the truncated mode, and a coefficient
    # that overflows to inf wrote NaN errors with solve_status OK
    "study = oracle_validation\nfamily = q1\nn = [4]\nmodes = [[1.5, 1, 1.0]]",
    "study = oracle_validation\nfamily = q1\nn = [4]\nmodes = [[1, 1, 1e400]]",
    # the second-row sign knob and the multi_h ladder flag are gone; a file
    # that sets either fails at load
    "study = eps_sweep\nfamily = q1\nn = [4]\nflip_second_row = true",
    "study = sigma_sweep\nfamily = q1\nn = [4, 8]\nsigma = [1e-3]\nmulti_h = true",
], ids=["family_q3", "case_rough", "infsup_odd_n", "alpha_5_eps_sweep",
        "alpha_5_h_convergence", "alpha_5_sigma_sweep",
        "alpha_without_eps_h_convergence", "alpha_without_eps_sigma_sweep",
        "dual_norm_check_triangles", "n_zero", "eps_negative",
        "standard_eps_zero", "sigma_negative", "sigma_unparsable", "modes_flat",
        "k_zero", "eps_sweep_two_n", "eps_sweep_two_alpha",
        "low_regularity_two_eps", "oracle_two_eps", "conditioning_two_alpha",
        "dual_norm_check_two_n", "sigma_sweep_scheme", "eps_sweep_sigma_list",
        "conditioning_case", "infsup_plot", "infsup_strict",
        "dual_norm_check_plot", "dual_norm_check_strict", "eps_sweep_empty_eps",
        "eps_sweep_empty_scheme", "eps_sweep_empty_n", "sigma_sweep_empty_sigma",
        "dual_norm_check_empty_k", "low_regularity_empty_alpha",
        "oracle_empty_modes", "strict_nope", "eps_true", "n_true",
        "sigma_true", "plot_list", "plot_empty", "sigma_h_nan", "sigma_h_inf",
        "sigma_inf",
        "eps_inf", "sigma_list_inf", "sigma_h_overflow", "n_unterminated", "modes_unterminated",
        "n_one_q1", "n_one_low_regularity", "n_one_oracle", "oracle_degenerate",
        "modes_fractional_k", "modes_inf_coeff", "flip_second_row", "multi_h"])
def test_cli_rejects_bad_study_values(tmp_path, capsys, body):
    out_csv = tmp_path / "out.csv"
    cfg = _write(tmp_path, f"[bad]\n{body}\noutput = {out_csv}\n")
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert main(["run", cfg]) == 1
    captured = capsys.readouterr()
    assert "configuration error:" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert "running" not in captured.out
    assert not out_csv.exists()


_REGIMES = ((1.0, 0), (1e-10, 0), (1e-10, 2))


@pytest.mark.parametrize("body,grid", [
    ("n = [4, 8]", [(n, eps, alpha, 10.0 ** -i) for n in (4, 8)
                    for eps, alpha in _REGIMES for i in range(16)]),
    ("n = [4]\nsigma = 1e-3", [(4, eps, alpha, 1e-3) for eps, alpha in _REGIMES]),
    ("n = [4]\nsigma = [h^2, 1e-3]", [(4, eps, alpha, sigma) for eps, alpha in _REGIMES
                                     for sigma in (0.25 ** 2, 1e-3)]),
], ids=["sigma_sweep_two_n", "sigma_sweep_scalar_sigma", "sigma_sweep_mixed_sigma"])
def test_cli_runs_sigma_sweep_grids(tmp_path, body, grid):
    # several n and a scalar sigma used to be refused: n is one more axis
    # of the grid, outside the regimes, and a scalar is a list of one
    out_csv = tmp_path / "sweep.csv"
    cfg = _write(tmp_path, f"[sweep]\nstudy = sigma_sweep\nfamily = q1\n{body}\n"
                           f"output = {out_csv}\n")
    assert main(["run", cfg]) == 0
    records = studies.read_csv(out_csv)
    assert [(r.n, r.eps, r.alpha, r.sigma) for r in records] == grid


# the grid of the removed multi_h flag for family q1, n = [4, 8] and
# sigma = [1e-4], in the order dissected down to uncuttable leaves:
# (n, eps, alpha, err_L2_abs, err_H1_abs, cond1)
_MULTI_H_RECORDS = [
    (4, 1, 0, 0.10588189160007787, 1.5253436847936486, 4800007.5002077054),
    (4, 1e-10, 0, 0.039284347828047704, 0.50005395664426722, 4800102.2044761973),
    (4, 1e-10, 2, 0.59075082001290213, 2.0902909588886365, 346898.40243260784),
    (4, 1e-10, 2, 0.59075082001290213, 2.0902909588886365, 346898.40243260784),
    (8, 1e-10, 2, 0.14424906265709408, 0.6895409357306832, 6890018.3311522352),
]


def test_sigma_sweep_ladder_as_a_second_section(tmp_path):
    # the sweep at the first n, then a section of the variable-field regime
    # over the mesh ladder, give the former multi_h grid's records in order
    common = "study = sigma_sweep\nfamily = q1\nsigma = [1e-4]\n"
    cfg = _write(tmp_path, f"[sweep]\n{common}n = [4]\noutput = {tmp_path / 'a.csv'}\n"
                           f"[ladder]\n{common}n = [4, 8]\neps = 1e-10\nalpha = 2\n"
                           f"output = {tmp_path / 'b.csv'}\n")
    assert main(["run", cfg]) == 0
    records = studies.read_csv(tmp_path / "a.csv") + studies.read_csv(tmp_path / "b.csv")
    assert [(r.n, r.eps, r.alpha, r.err_L2_abs, r.err_H1_abs, r.cond1)
            for r in records] == _MULTI_H_RECORDS
    assert {(r.scheme, r.sigma, r.solve_status) for r in records} == {
        ("stabilized", 1e-4, "OK")}


def _refused_at_load(tmp_path, capsys, cfg, *, match):
    """A one-line configuration error, exit 1, before anything runs."""
    with pytest.raises(ConfigError, match=match):
        load_config(cfg)
    assert main(["run", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert captured.err.count("\n") == 1
    assert "running" not in captured.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.cfg"]


def test_cli_rejects_an_empty_output(tmp_path, monkeypatch, capsys):
    # it wrote no CSV and exited 0, and its plot script read '' (an empty
    # plot is an id of test_cli_rejects_bad_study_values)
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "[s]\nstudy = eps_sweep\nfamily = q1\nn = [4]\n"
                           "output =\nplot = x.gp\n")
    _refused_at_load(tmp_path, capsys, cfg, match="cannot parse output ''")


@pytest.mark.parametrize("sections", [
    "[a]\n{s}output = {d}/run.csv\nplot = {d}/run.csv\n",
    "[a]\n{s}output = {d}/run.csv\n[b]\n{s}output = {d}/./run.csv\n",
    "[a]\n{s}output = {d}/a.csv\nplot = {d}/b.gp\n[b]\n{s}output = b.gp\n",
], ids=["plot_is_output", "two_sections_one_output", "plot_is_a_later_output"])
def test_cli_rejects_a_path_written_twice(tmp_path, monkeypatch, capsys, sections):
    # the plot script replaced the CSV, or the second section's CSV the
    # first one's, with exit 0
    monkeypatch.chdir(tmp_path)
    body = sections.format(s="study = eps_sweep\nfamily = q1\nn = [4]\n", d=tmp_path)
    _refused_at_load(tmp_path, capsys, _write(tmp_path, body), match="written twice")


def test_config_names_the_removed_flip_key(tmp_path):
    # and the removed multi_h flag: its ladder is a second section now
    for key, kind in (("flip_second_row", "eps_sweep"), ("multi_h", "sigma_sweep")):
        cfg = _write(tmp_path, f"[old]\nstudy = {kind}\n{key} = false\n")
        with pytest.raises(ConfigError, match=fr"unknown key\(s\) \['{key}'\]"):
            load_config(cfg)


def _readme_table(heading: str) -> list[list[list[str]]]:
    """The rows of the README table under the header row ``heading``, as
    the backquoted names of each cell."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index(heading) + 2            # past the header and rule rows
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([re.findall(r"`([^`]*)`", cell) for cell in line.split("|")[1:-1]])
    return rows


def test_readme_key_tables_match_the_loader():
    # the key table lists what load_config accepts, the study table one row
    # per study kind, which names exactly the keys that study reads
    accepted = set(studies.KEYS) | {"study", "output", "plot", "strict"}
    keys = [key for row in _readme_table("| key | meaning |") for key in row[0]]
    assert sorted(keys) == sorted(accepted)
    rows = _readme_table("| study | keys and defaults |")
    assert [kind for (kind,), _ in rows] == list(studies.STUDIES)
    for (kind,), names in rows:
        assert set(names) & accepted == set(studies.STUDIES[kind].reads), kind
        # any other backquoted name is a value, such as a case; a removed
        # key would pass the line above
        assert set(names) - accepted <= set(CASE_IDS), kind


def test_cli_runs_q2_at_n_one(tmp_path, capsys):
    # a Q2 cell has one interior dof, so n = 1 is a system
    out_csv = tmp_path / "out.csv"
    body = f"[one]\nstudy = eps_sweep\nfamily = q2\nn = [1]\noutput = {out_csv}\n"
    assert main(["run", _write(tmp_path, body)]) == 0
    assert len(out_csv.read_text().splitlines()) > 1


def test_cli_rejects_plot_without_output(tmp_path, capsys):
    # its script would read a CSV that nothing writes
    plot = tmp_path / "run.d" / "sweep"
    cfg = _write(tmp_path, "[bad]\nstudy = h_convergence\nfamily = q1\n"
                           f"n = [4]\nplot = {plot}\n")
    with pytest.raises(ConfigError, match="plot needs output"):
        load_config(cfg)
    assert main(["run", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "configuration error:" in captured.err
    assert "running" not in captured.out
    assert not plot.exists()


def test_cli_output_is_the_text_of_its_key(tmp_path, monkeypatch, capsys):
    # output = 100 names the file 100; a bracketed output is a
    # configuration error before anything runs, not a traceback after
    monkeypatch.chdir(tmp_path)
    body = "[probe]\nstudy = dual_norm_check\nn = [8]\nk = [1]\noutput = "
    assert main(["run", _write(tmp_path, body + "100\n")]) == 0
    assert (tmp_path / "100").read_text().startswith("k,computed_ratio")
    capsys.readouterr()
    cfg = _write(tmp_path, body + "[a.csv]\n", name="list.cfg")
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert main(["run", cfg]) == 1
    captured = capsys.readouterr()
    assert "configuration error:" in captured.err
    assert "running" not in captured.out


@pytest.mark.parametrize("seed", range(6))
def test_benchmark_workload_configs_load(tmp_path, monkeypatch, seed):
    # the benchmark's generated configs must pass the loader's validation
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        outdir = tmp_path / name
        outdir.mkdir()
        workload.write_config(seed, str(outdir))
        studies = load_config(outdir / "study.cfg")
        assert [s.name for s in studies] == [s.name for s in workload.sections(seed)]
