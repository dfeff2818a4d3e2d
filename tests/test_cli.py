import json
import math

import numpy as np
import pytest

from mfglab.cli import RUNNERS, main
from mfglab.config import RunConfig
from mfglab.errors import ConfigError

QD_CONFIG = """\
[model]
family = quadratic-drift

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


def assert_one_failure_line(err, *parts):
    """stderr is one 'check failed:' line that holds every part."""
    assert err.startswith("check failed: ") and err.count("\n") == 1, err
    assert all(part in err for part in parts), err


def example_config(tmp_path, dim, extra=""):
    """A config file that sets the verify-example torus dimension."""
    path = tmp_path / f"example_{dim}.ini"
    path.write_text(f"[run]\nexample_dim = {dim}\n{extra}")
    return str(path)


def test_verify_example_passes(tmp_path, capsys):
    out = tmp_path / "ex"
    assert main(["verify-example", "--config", example_config(tmp_path, 1),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    summary = read_summary(out)
    assert summary["pass"] is True
    assert summary["extras"]["hjb_closed"] <= 1e-10


def test_verify_example_reports_defect_in_dimension_two(tmp_path, capsys):
    out = tmp_path / "ex2"
    assert main(["verify-example", "--config", example_config(tmp_path, 2),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "defect" in printed
    assert "PASS" not in printed.replace("PASS/FAIL", "")


def test_verify_example_failure_exit_code(tmp_path, monkeypatch, capsys):
    import mfglab.cli as cli

    monkeypatch.setattr(cli, "RESIDUAL_GRID_TOL", 1e-9)
    out = tmp_path / "strict_out"
    code = main(["verify-example", "--config", example_config(tmp_path, 1),
                 "--out", str(out)])
    assert code == 1
    assert read_summary(out)["pass"] is False
    assert_one_failure_line(capsys.readouterr().err, "hjb_grid: ", "is not <= 1e-09")


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
    # vmax is no config key: every subcommand steps at the velocity cutoff 10
    vmax_20 = "[grid]\nn = 64\ndt = 0.001\nvmax = 20\n[run]\ndt_probe = 0.001\n"
    cases = {
        "dt_large.ini": "[grid]\nn = 256\ndt = 0.2\n",
        "dt_small.ini": "[grid]\nn = 256\ndt = 1e-5\n",
        "bad_n.ini": "[grid]\nn = 300\ndt = 0.002\n",
        "bad_tol.ini": "[tolerances]\ntol_converge_final = -1\n",
        "nan_tol.ini": "[tolerances]\ntol_converge_final = nan\n",
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
        "vmax_20.ini": vmax_20,
        "vmax_20_solve.ini": vmax_20,
        "bump_zero_width.ini": "[measures]\nm1 = gaussian-bump(0.3,0)\n",
        "bump_negative_width.ini": "[measures]\nm1 = gaussian-bump(0.3,-0.1)\n",
        "bump_inf_width.ini": "[measures]\nm1 = gaussian-bump(0.3,inf)\n",
        "bump_nan_centre.ini": "[measures]\nm1 = gaussian-bump(nan,0.1)\n",
        "bump_underflow.ini": "[measures]\nm1 = gaussian-bump(0.3,1e-5)\n",
        "fourier_nan.ini": "[coupling]\nf = custom-fourier(nan,0)\n",
        "fourier_inf.ini": "[coupling]\nf = custom-fourier(inf,0)\n",
        "fourier_huge.ini": "[coupling]\nf = custom-fourier(1e308,1e308)\n",
        "dim_two.ini": "[model]\nfamily = quadratic-drift\ndim = 2\n",
        "c_nan.ini": "[run]\nc = nan\n",
        "c_inf.ini": "[run]\nc = inf\n",
        "a_values_nan.ini": "[model]\nfamily = mechanical\n[run]\na_values = 0 nan\n",
        "a_values_empty.ini": "[model]\nfamily = mechanical\n[run]\na_values =\n",
        "csv_stride_negative.ini": "[run]\ncsv_stride = -3\n",
        "shift_inf.ini": "[model]\nfamily = mechanical\nshift = inf\n",
        "example_dim_zero.ini": "[run]\nexample_dim = 0\n",
        "example_dim_negative.ini": "[run]\nexample_dim = -1\n",
        "example_dim_five.ini": "[run]\nexample_dim = 5\n",
        "example_dim_huge.ini": "[run]\nexample_dim = 1000000000\n",
    }
    commands = {"vmax_20_solve.ini": "solve", "a_values_empty.ini": "alpha",
                "csv_stride_negative.ini": "solve"}
    unnamed_invariant = ("unknown_key.ini", "removed_key.ini", "dim_two.ini",
                         "no_section.ini", "duplicate_key.ini", "unknown_potential.ini",
                         "bad_potential_args.ini", "vmax_zero.ini", "vmax_nan.ini",
                         "vmax_negative.ini", "vmax_20.ini", "vmax_20_solve.ini")
    for name in cases:
        if name.startswith("bump_"):
            commands[name] = "wasserstein"
            unnamed_invariant += (name,)
        if name.startswith("fourier_"):
            commands[name] = "periodic"
            unnamed_invariant += (name,)
        if name.startswith("example_dim_"):
            commands[name] = "verify-example"
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
             "vmax_zero.ini": "unknown config key [grid] vmax",
             "vmax_nan.ini": "unknown config key [grid] vmax",
             "vmax_negative.ini": "unknown config key [grid] vmax",
             "vmax_20.ini": "unknown config key [grid] vmax",
             "vmax_20_solve.ini": "unknown config key [grid] vmax",
             "bump_zero_width.ini": "finite width > 0",
             "bump_negative_width.ini": "finite width > 0",
             "bump_inf_width.ini": "finite width > 0",
             "bump_nan_centre.ini": "finite centre",
             "bump_underflow.ini": "positive total",
             "fourier_nan.ini": "custom-fourier needs finite coefficients",
             "fourier_inf.ini": "custom-fourier needs finite coefficients",
             "fourier_huge.ini": "custom-fourier needs a finite Lipschitz constant",
             "dim_two.ini": "unknown config key [model] dim",
             "bad_tol.ini": "tolerance invariant violated: tol_converge_final",
             "nan_tol.ini": "tolerance invariant violated: tol_converge_final",
             "c_nan.ini": "number invariant violated: c must be finite",
             "c_inf.ini": "number invariant violated: c must be finite",
             "a_values_nan.ini": "number invariant violated: a_values must be finite",
             "a_values_empty.ini": "shift invariant violated: a_values must be nonempty",
             "csv_stride_negative.ini": "count invariant violated: periods and pairs "
                                        ">= 1, csv_stride >= 0",
             "shift_inf.ini": "number invariant violated: shift must be finite",
             "example_dim_zero.ini": "dimension invariant violated",
             "example_dim_negative.ini": "dimension invariant violated",
             "example_dim_five.ini": "grid-size invariant violated",
             "example_dim_huge.ini": "grid-size invariant violated"}
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code = main([commands.get(name, "critical-value"), "--config", str(path),
                     "--out", str(tmp_path / "out")])
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


def test_tol_c0_reaches_the_periodic_runners(tmp_path, monkeypatch, capsys):
    """The probe behind periodic, lipschitz-c and converge is held to
    PROBE_TOL (the bound once set by the tol_c0 key), as the critical-value
    subcommand's is."""
    import mfglab.lax_oleinik as lax_oleinik

    monkeypatch.setattr(lax_oleinik, "PROBE_TOL", 1e-9)
    cfg = tmp_path / "tight.ini"
    cfg.write_text("[model]\nfamily = mechanical\npotential = cosine\nshift = 1.6\n"
                   "[grid]\nn = 128\ndt = 0.004\n[run]\ndt_probe = 0.004\n")
    for command in ("critical-value", "periodic", "lipschitz-c", "converge"):
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1, command
        assert "critical value diagnostic" in capsys.readouterr().err, command


SMALL_QD = QD_CONFIG.replace("n = 256", "n = 128").replace("0.002", "0.004")
SMALL_CONVERGE = SMALL_QD + "horizons = 2 4\nwindow = 0.5\nphi = cosine\n"
SMALL_MECHANICAL = ("[model]\nfamily = mechanical\npotential = cosine\n"
                    "[grid]\nn = 64\ndt = 0.004\n[run]\ndt_probe = 0.004\n")


@pytest.mark.parametrize("command, text, flags, bounds, parts", [
    ("alpha", SMALL_MECHANICAL, ["--a-grid=-0.3:0.3:3"], {"CONVEXITY_TOL": -1.0},
     ["convexity_min_second_difference: ", "is not >= 1\n"]),
    ("periodic", SMALL_QD, [], {"PERIODICITY_TOL": -1.0},
     ["periodicity_defect: ", "is not <= -1\n"]),
    ("periodic", SMALL_QD, [], {"NONTRIVIALITY_TOL": 1.0},
     ["nontriviality_gap: ", "is not >= 1\n"]),
    ("lipschitz-c", SMALL_QD, ["--seed=7"], {"LIPSCHITZ_SLACK": -1e3},
     ["lipschitz_ratio_max: ", " + -1000 (3 of 3 pairs)\n"]),
    ("converge", SMALL_CONVERGE, [], {"CONVERGE_SLACK": -1.0},
     ["d1_deviation at T = 4 vs 0 x its T = 2 value: ", "is not <= 0\n"]),
    ("converge", SMALL_CONVERGE + "tol_converge_final = 1e-9\n", [], {},
     ["d1_deviation at T = 4 vs tol_converge_final: ", "is not <= 1e-09\n"]),
    ("verify-example", "[run]\nexample_dim = 1\n", [], {"RESIDUAL_CLOSED_TOL": 0.0},
     ["hjb_closed: ", "is not <= 0\n"]),
], ids=["alpha", "periodicity", "nontriviality", "lipschitz-c", "converge-rise",
        "converge-final", "verify-example"])
def test_failed_check_names_itself_on_stderr(tmp_path, monkeypatch, capsys, command,
                                             text, flags, bounds, parts):
    """A run that fails one of its checks exits 1, still writes its summary
    with "pass": false, and names the check, its value and its bound on one
    stderr line.  The bound is tightened by patching its constant in every
    package module that binds it."""
    import sys

    for name, value in bounds.items():
        modules = [module for key, module in list(sys.modules.items())
                   if key.startswith("mfglab") and hasattr(module, name)]
        assert modules, name
        for module in modules:
            monkeypatch.setattr(module, name, value)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
    assert read_summary(out)["pass"] is False
    assert_one_failure_line(capsys.readouterr().err, *parts)


def test_periodic_runners_probe_once(tmp_path, monkeypatch):
    """periodic, lipschitz-c and converge each run one critical-value probe
    and hand its regime to the experiment, which does not probe again.  The
    counter replaces the probe in every package module that binds it."""
    import sys

    import mfglab.cli as cli

    calls = []
    probe = cli.critical_value
    for name, module in list(sys.modules.items()):
        if name.startswith("mfglab") and getattr(module, "critical_value", None) is probe:
            monkeypatch.setattr(module, "critical_value",
                                lambda *a, **k: calls.append(a[0]) or probe(*a, **k))
    cfg = tmp_path / "small.ini"
    cfg.write_text(QD_CONFIG.replace("n = 256", "n = 128").replace("0.002", "0.004")
                   + "horizons = 2 4\nwindow = 0.5\nphi = cosine\n"
                   + "tol_converge_final = 0.05\n")
    for command in ("periodic", "lipschitz-c", "converge"):
        calls.clear()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        assert len(calls) == 1, command


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
    # the verify-example dimension is the example_dim key, not a flag
    with pytest.raises(SystemExit) as exc:
        main(["verify-example", "--n", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n" in capsys.readouterr().err
    for seed in ("-1", "-7"):
        assert main(["lipschitz-c", f"--seed={seed}", "--out", str(out)]) == 2, seed
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and len(err.splitlines()) == 1, err
        assert "seed invariant" in err and "--seed" in err, err
        assert not (out / "ratios.csv").exists()


@pytest.mark.parametrize("command", sorted(set(RUNNERS) - {"lipschitz-c"}))
def test_seed_is_refused_off_lipschitz(tmp_path, command, capsys):
    """Only lipschitz-c draws random measures; elsewhere --seed is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "3", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_one_candidate_rule_leaves_artifacts_unchanged(tmp_path, monkeypatch):
    """converge and lipschitz-c write byte-identical artifacts with the
    Hopf-Lax stepper's band rule as it is and turned off by s_star = -1,
    on small configs where the converge sweep takes a one-offset band and
    a band narrower than the window on steps whose field is not uniform."""
    from mfglab.lax_oleinik import HopfLaxStepper

    small = QD_CONFIG.replace("n = 256", "n = 128").replace("0.002", "0.004")
    configs = {
        "converge": small + "horizons = 2 4\nwindow = 0.5\nphi = cosine\n"
                            "tol_converge_final = 0.05\n",
        # at n = 128 this model's push-forward drifts past MASS_DRIFT_TOL
        "lipschitz-c": QD_CONFIG.replace("0.002", "0.004").replace(
            "family = quadratic-drift", "family = mechanical\nshift = 1.6\npotential = cosine"),
    }
    widths = set()
    band = HopfLaxStepper._band

    def spy(self, w0):
        lo, hi = band(self, w0)
        if np.ptp(self._wrapped) > 0.0:
            widths.add((hi - lo + 1, self.offsets.size))
        return lo, hi

    def run(tag):
        artifacts = {}
        for command, text in configs.items():
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(text)
            out = tmp_path / tag / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            artifacts[command] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return artifacts

    with monkeypatch.context() as patch:
        patch.setattr(HopfLaxStepper, "_band", spy)
        as_is = run("as-is")
    assert any(width == 1 for width, _ in widths)
    assert any(1 < width < m for width, m in widths)
    build = HopfLaxStepper.__init__

    def rule_off(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self._s_star = -1.0

    monkeypatch.setattr(HopfLaxStepper, "__init__", rule_off)
    assert run("rule-off") == as_is


def test_non_finite_summary_value_exits_1(tmp_path, monkeypatch, capsys):
    """A NaN or infinite value bound for summary.json exits 1 with one
    stderr line that names its key, and no summary is written; the same
    config with finite values writes the summary."""
    import mfglab.cli as cli

    cfg = tmp_path / "qd.ini"
    cfg.write_text(QD_CONFIG.replace("n = 256", "n = 64").replace("0.002", "0.005"))
    probe = cli.critical_value
    out = tmp_path / "finite"
    assert main(["critical-value", "--config", str(cfg), "--out", str(out)]) == 0
    assert math.isfinite(read_summary(out)["extras"]["oscillation"])
    for bad in (math.nan, math.inf):
        def broken(*args, bad=bad, **kwargs):
            result = probe(*args, **kwargs)
            result.oscillation = bad
            return result

        monkeypatch.setattr(cli, "critical_value", broken)
        out = tmp_path / f"bad-{bad}"
        capsys.readouterr()
        assert main(["critical-value", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "extras.oscillation" in err
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()
