import json

import pytest

from mfglab.cli import main
from mfglab.config import RunConfig
from mfglab.errors import ConfigError

QD_CONFIG = """\
[model]
family = quadratic-drift
dim = 1

[grid]
n = 256
dt = 0.002

[coupling]
f = cosine4pi

[measures]
m_t = one-plus-cosine

[run]
t_probe = 20.0
dt_probe = 0.002
pairs = 3
"""


@pytest.fixture()
def qd_config(tmp_path):
    path = tmp_path / "qd.ini"
    path.write_text(QD_CONFIG)
    return path


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


def test_verify_example_passes(tmp_path, capsys):
    out = tmp_path / "ex"
    assert main(["verify-example", "--n", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    summary = read_summary(out)
    assert summary["pass"] is True
    assert summary["extras"]["hjb_closed"] <= 1e-10


def test_verify_example_reports_defect_in_dimension_two(tmp_path, capsys):
    out = tmp_path / "ex2"
    assert main(["verify-example", "--n", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "defect" in printed
    assert "PASS" not in printed.replace("PASS/FAIL", "")


def test_verify_example_failure_exit_code(tmp_path):
    cfg = tmp_path / "strict.ini"
    cfg.write_text("[tolerances]\ntol_residual_grid = 1e-9\n")
    out = tmp_path / "strict_out"
    code = main(["verify-example", "--n", "1", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert read_summary(out)["pass"] is False


def test_periodic_summary_schema(tmp_path, qd_config):
    out = tmp_path / "per"
    assert main(["periodic", "--config", str(qd_config), "--out", str(out)]) == 0
    summary = read_summary(out)
    for key in ("c0", "tau", "c_mT", "periodicity_defect", "nontriviality_gap",
                "lipschitz_ratio_max", "convergence_table"):
        assert key in summary
    assert summary["tau"] == pytest.approx(1.0)
    assert abs(summary["c_mT"]) <= 1e-3
    assert summary["extras"]["mather_class"] == "periodic-orbit"
    assert (out / "ubar.csv").exists()
    assert (out / "mbar.csv").exists()
    assert (out / "flow.csv").exists()
    assert (out / "plot.py").exists()


def test_summaries_are_byte_identical(tmp_path, qd_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["periodic", "--config", str(qd_config), "--out", str(out1)]) == 0
    assert main(["periodic", "--config", str(qd_config), "--out", str(out2)]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_wasserstein_subcommand(tmp_path, qd_config):
    out = tmp_path / "ws"
    assert main(["wasserstein", "--config", str(qd_config), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["extras"]["d1"] == pytest.approx(1.0 / 3.14159265**2, abs=1e-3)


def test_lipschitz_subcommand_seeded(tmp_path, qd_config):
    out = tmp_path / "lc"
    assert main(["lipschitz-c", "--config", str(qd_config), "--seed", "7",
                 "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["extras"]["violations"] == 0
    assert summary["lipschitz_ratio_max"] <= summary["extras"]["bound"]


def test_alpha_subcommand_grid(tmp_path):
    cfg = tmp_path / "mech.ini"
    cfg.write_text("""\
[model]
family = mechanical
shift = 0.0
potential = double-well(0.5,1.0)

[grid]
n = 256
dt = 0.002

[run]
t_probe = 20.0
dt_probe = 0.002
""")
    out = tmp_path / "al"
    assert main(["alpha", "--config", str(cfg), "--a-grid=-0.3:0.3:3",
                 "--out", str(out)]) == 0
    rows = (out / "alpha.csv").read_text().splitlines()
    assert rows[0] == "a,alpha"
    assert len(rows) == 4
    summary = read_summary(out)
    assert max(abs(v) for v in summary["extras"]["alpha"]) <= 1e-2  # plateau


def test_malformed_configs_exit_2(tmp_path, capsys):
    cases = {
        "dt_large.ini": "[grid]\nn = 256\ndt = 0.2\n",
        "dt_small.ini": "[grid]\nn = 256\ndt = 1e-5\n",
        "bad_n.ini": "[grid]\nn = 300\ndt = 0.002\n",
        "bad_tol.ini": "[tolerances]\ntol_c0 = -1\n",
        "nan_tol.ini": "[tolerances]\ntol_periodicity = nan\n",
        "unknown_key.ini": "[grid]\nresolution = 256\n",
        "removed_key.ini": "[run]\nk_test = 8\n",
        "bad_int.ini": "[grid]\nn = abc\n",
        "bad_list.ini": "[run]\nhorizons = 5 ten 20\n",
        "off_grid_horizon.ini": "[grid]\ndt = 0.001\n[run]\nhorizon = 0.0015\n",
        "off_grid_horizons.ini": "[grid]\ndt = 0.004\n[run]\ndt_probe = 0.004\n"
                                 "horizons = 3 4.002\n",
        "off_grid_window.ini": "[grid]\ndt = 0.004\n[run]\ndt_probe = 0.004\n"
                               "window = 0.002\n",
        "off_grid_t_probe.ini": "[run]\ndt_probe = 0.004\nt_probe = 20.002\n",
        "off_grid_calibration.ini": "[grid]\ndt = 0.004\n[run]\ndt_probe = 0.002\n"
                                    "horizons = 0.5\n",
        "window_over_horizon.ini": "[grid]\nn = 64\ndt = 0.004\n[run]\n"
                                   "dt_probe = 0.004\nhorizons = 0.4\nwindow = 1.0\n",
        "short_t_probe.ini": "[run]\nt_probe = 2.0\n",
        "no_section.ini": "n = 256\n",
        "duplicate_key.ini": "[grid]\nn = 256\nn = 512\n",
        "unknown_potential.ini": "[model]\nfamily = mechanical\npotential = foo\n",
        "bad_potential_args.ini": "[model]\nfamily = mechanical\n"
                                  "potential = double-well(a,1)\n",
        "vmax_zero.ini": "[grid]\nvmax = 0\n",
        "vmax_nan.ini": "[grid]\nvmax = nan\n",
        "vmax_negative.ini": "[grid]\nvmax = -5\n",
        "dim_two.ini": "[model]\nfamily = quadratic-drift\ndim = 2\n",
    }
    unnamed_invariant = ("unknown_key.ini", "removed_key.ini", "no_section.ini",
                         "duplicate_key.ini", "unknown_potential.ini",
                         "bad_potential_args.ini")
    named = {"bad_int.ini": "[grid] n", "bad_list.ini": "[run] horizons",
             "off_grid_horizon.ini": "horizon = 0.0015",
             "off_grid_calibration.ini": "calibration horizon = 0.75 is not a positive "
                                         "integer multiple of dt = 0.004",
             "window_over_horizon.ini": "window invariant violated: window = 1",
             "short_t_probe.ini": "t_probe invariant violated: t_probe = 2",
             "no_section.ini": "malformed config file",
             "duplicate_key.ini": "malformed config file",
             "unknown_potential.ini": "unknown potential id",
             "bad_potential_args.ini": "could not convert",
             "vmax_zero.ini": "velocity invariant violated",
             "vmax_nan.ini": "velocity invariant violated",
             "vmax_negative.ini": "velocity invariant violated",
             "dim_two.ini": "dimension invariant violated",
             "nan_tol.ini": "tolerance invariant violated: tol_periodicity"}
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code = main(["critical-value", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 2, name
        err = capsys.readouterr().err
        assert "invariant" in err or name in unnamed_invariant
        assert named.get(name, "") in err, name
        if name.startswith("off_grid"):
            assert "time-grid invariant" in err, name
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xec\x80[grid]\n")
    assert main(["critical-value", "--config", str(binary), "--out", str(tmp_path / "out")]) == 2
    assert "malformed config file" in capsys.readouterr().err


def test_config_syntax_errors_are_one_line(tmp_path, capsys):
    """A file configparser cannot read exits 2 with one stderr line that
    names the file and the offending line."""
    cases = {
        "no_section.ini": ("n = 256\n", "line 1: no [section] header before 'n = 256'"),
        "duplicate_key.ini": ("[grid]\nn = 256\nn = 512\n",
                              "line 3: duplicate key [grid] n"),
        "duplicate_section.ini": ("[grid]\nn = 256\n[grid]\n",
                                  "line 3: duplicate section [grid]"),
        "no_value.ini": ("[grid]\nn = 256\n= 5\n", "line 3: cannot parse"),
    }
    for name, (text, where) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code = main(["critical-value", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, name
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert f"malformed config file {path}, {where}" in err, err


def test_malformed_flags_exit_2(tmp_path, capsys):
    mech = tmp_path / "mech.ini"
    mech.write_text("[model]\nfamily = mechanical\npotential = cosine\n"
                    "[grid]\nn = 64\ndt = 0.004\n[run]\ndt_probe = 0.004\n")
    out = tmp_path / "out"
    for grid in ("1:2", "a:b:3", "0:1:2.5", "0:1:-3", "0:1:0"):
        code = main(["alpha", "--config", str(mech), f"--a-grid={grid}", "--out", str(out)])
        assert code == 2, grid
        assert "a-grid invariant" in capsys.readouterr().err, grid
        assert not (out / "alpha.csv").exists()
    for dim, invariant in (("0", "dimension"), ("-1", "dimension"), ("5", "grid-size"),
                           ("1000000000", "grid-size")):
        assert main(["verify-example", f"--n={dim}", "--out", str(out)]) == 2, dim
        assert f"{invariant} invariant" in capsys.readouterr().err, dim


def test_config_validation_names_the_invariant():
    cfg = RunConfig()
    cfg.n = 300
    with pytest.raises(ConfigError, match="power of two"):
        cfg.validate()
    cfg = RunConfig()
    cfg.dt = 0.2
    with pytest.raises(ConfigError, match="too large"):
        cfg.validate()
    cfg = RunConfig()
    cfg.dt = 1e-6
    with pytest.raises(ConfigError, match="too small"):
        cfg.validate()


def test_critical_value_subcommand(tmp_path, qd_config):
    out = tmp_path / "cv"
    assert main(["critical-value", "--config", str(qd_config), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert abs(summary["c0"]) <= 1e-3
    assert (out / "u0.csv").read_text().splitlines()[0] == "x,u0"


def test_converge_subcommand_small(tmp_path):
    cfg = tmp_path / "conv.ini"
    cfg.write_text(QD_CONFIG + "horizons = 2 4\nwindow = 0.5\nphi = cosine\n"
                   + "tol_converge_final = 0.05\n")
    out = tmp_path / "conv_out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    table = summary["convergence_table"]
    assert len(table) == 2
    assert table[1][1] <= table[0][1] * 1.1  # d1 deviation non-increasing


def test_solve_subcommand_artifacts(tmp_path, qd_config):
    cfg = tmp_path / "solve.ini"
    cfg.write_text(QD_CONFIG + "horizon = 1.0\nphi = zero\nc = 0.0\n")
    out = tmp_path / "solve_out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    u_lines = (out / "u.csv").read_text().splitlines()
    m_lines = (out / "m.csv").read_text().splitlines()
    assert u_lines[0] == "t,x,u"
    assert m_lines[0] == "t,x,w"
    assert len(u_lines) > 256
