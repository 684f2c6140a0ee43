import importlib
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from anisofem import studies
from anisofem.cli import main
from anisofem.config import ConfigError, load_config, parse_value
from reference_outputs import compare_check, version_mismatch


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
    assert cfg.schemes == ["inflow", "stabilized"]
    assert cfg.sigma_rule == ("power", 3.0)
    assert cfg.n_list == [5, 10]
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
    assert cfg.sigma_rule == ("fixed", 1e-6)
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
    "study = sigma_sweep\nfamily = q1\nn = [4, 8]",
    "study = dual_norm_check\nn = [8, 16]",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nsigma = 1e-3",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nscheme = [inflow]",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = [1e-3, 1e-5]",
    "study = conditioning\nfamily = q1\nn = [4]\ncase = low_reg",
    "study = infsup_probe\nn = [4]\nplot = probe.gp",
    "study = infsup_probe\nn = [4]\nstrict = true",
    "study = dual_norm_check\nn = [8]\nplot = probe.gp",
    "study = dual_norm_check\nn = [8]\nstrict = true",
    # the multi_h ladder used to run at eps = 1e-10, alpha = 2 whatever
    # eps and alpha said
    "study = sigma_sweep\nfamily = q1\nn = [4, 8]\neps = [1]\nalpha = [0]\n"
    "sigma = [1e-3]\nmulti_h = true",
    "study = sigma_sweep\nfamily = q1\nn = [4, 8]\neps = [1]\n"
    "sigma = [1e-3]\nmulti_h = true",
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
    "study = sigma_sweep\nfamily = q1\nn = [4, 8]\nsigma = [1e-3]\nmulti_h = maybe",
    "study = eps_sweep\nfamily = q1\nn = [4]\neps = [true]",
    "study = eps_sweep\nfamily = q1\nn = true",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = true",
    # a path is one path, not a list
    "study = eps_sweep\nfamily = q1\nn = [4]\nplot = [a.gp]",
    # non-finite values used to run and write SINGULAR rows
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = h^nan",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = h^inf",
    "study = eps_sweep\nfamily = q1\nn = [4]\nsigma = inf",
    "study = eps_sweep\nfamily = q1\nn = [4]\neps = [inf]",
    "study = sigma_sweep\nfamily = q1\nn = [4]\nsigma = [1e-3, inf]",
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
], ids=["family_q3", "case_rough", "infsup_odd_n", "alpha_5_eps_sweep",
        "alpha_5_h_convergence", "alpha_5_sigma_sweep",
        "alpha_without_eps_h_convergence", "alpha_without_eps_sigma_sweep",
        "dual_norm_check_triangles", "n_zero", "eps_negative",
        "standard_eps_zero", "sigma_negative", "sigma_unparsable", "modes_flat",
        "k_zero", "eps_sweep_two_n", "eps_sweep_two_alpha",
        "low_regularity_two_eps", "oracle_two_eps", "conditioning_two_alpha",
        "sigma_sweep_two_n", "dual_norm_check_two_n", "sigma_sweep_scalar_sigma",
        "sigma_sweep_scheme", "eps_sweep_sigma_list", "conditioning_case",
        "infsup_plot", "infsup_strict", "dual_norm_check_plot",
        "dual_norm_check_strict", "sigma_sweep_multi_h_eps_alpha",
        "sigma_sweep_multi_h_eps", "eps_sweep_empty_eps",
        "eps_sweep_empty_scheme", "eps_sweep_empty_n", "sigma_sweep_empty_sigma",
        "dual_norm_check_empty_k", "low_regularity_empty_alpha",
        "oracle_empty_modes", "strict_nope", "multi_h_maybe", "eps_true", "n_true",
        "sigma_true", "plot_list", "sigma_h_nan", "sigma_h_inf", "sigma_inf",
        "eps_inf", "sigma_list_inf", "n_unterminated", "modes_unterminated",
        "n_one_q1", "n_one_low_regularity", "n_one_oracle", "oracle_degenerate",
        "modes_fractional_k", "modes_inf_coeff"])
def test_cli_rejects_bad_study_values(tmp_path, capsys, body):
    out_csv = tmp_path / "out.csv"
    cfg = _write(tmp_path, f"[bad]\n{body}\noutput = {out_csv}\n")
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert main(["run", cfg]) == 1
    captured = capsys.readouterr()
    assert "configuration error:" in captured.err
    assert "running" not in captured.out
    assert not out_csv.exists()


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
