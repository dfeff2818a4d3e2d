import dataclasses
import json
import math
import tracemalloc

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


def test_verify_example_passes(tmp_path, capsys):
    out = tmp_path / "ex"
    assert main(["verify-example", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    summary = read_summary(out)
    assert summary["pass"] is True
    assert summary["extras"]["hjb_closed"] <= 1e-10
    # dt != dx, so the grid transport residual measures the scheme, not round-off
    assert 1e-6 < summary["extras"]["transport_grid"] <= 1e-3


def test_verify_example_failure_exit_code(tmp_path, monkeypatch, capsys):
    import mfglab.cli as cli

    monkeypatch.setattr(cli, "RESIDUAL_GRID_TOL", 1e-9)
    out = tmp_path / "strict_out"
    code = main(["verify-example", "--out", str(out)])
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
    assert summary["extras"]["seed"] == 7  # the pairs are not in the embedded config


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
        "bump_subnormal_square.ini": "[measures]\nm1 = gaussian-bump(0.3,1e-160)\n",
        "bump_zero_square.ini": "[measures]\nm1 = gaussian-bump(0.5,1e-300)\n",
        "bump_inf_square.ini": "[measures]\nm1 = gaussian-bump(0.5,1e200)\n",
        "shift_overflow.ini": "[model]\nfamily = mechanical\npotential = cosine\n"
                              "shift = 1e200\n",
        "potential_overflow.ini": "[model]\nfamily = mechanical\n"
                                  "potential = double-well(1e308,1e308)\n",
        "fourier_nan.ini": "[coupling]\nf = custom-fourier(nan,0)\n",
        "fourier_inf.ini": "[coupling]\nf = custom-fourier(inf,0)\n",
        "fourier_huge.ini": "[coupling]\nf = custom-fourier(1e308,1e308)\n",
        # an empty or unparsable argument is refused, never dropped
        "fourier_empty_middle.ini": "[coupling]\nf = custom-fourier(1,,0)\n",
        "fourier_empty_last.ini": "[coupling]\nf = custom-fourier(1,0,)\n",
        "potential_empty_third.ini": "[model]\nfamily = mechanical\n"
                                     "potential = double-well(0.5,1,)\n",
        "potential_empty_second.ini": "[model]\nfamily = mechanical\n"
                                      "potential = double-well(0.5,)\n",
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
        "solve_9_tib.ini": "[grid]\nn = 64\ndt = 0.05\n[run]\nhorizon = 1e9\n",
        "solve_161_gb.ini": "[grid]\nn = 4096\ndt = 2.44140625e-05\n[run]\nhorizon = 40\n",
        "c_times_horizon_inf.ini": "[grid]\nn = 64\ndt = 0.004\n[run]\ndt_probe = 0.004\n"
                                   "c = 1e308\nhorizon = 3\n",
        # a key is a RunConfig field: no method, class attribute or second spelling
        "key_validate.ini": "[run]\nvalidate = 1\n",
        "key_as_dict.ini": "[run]\nas_dict = 1\n",
        "key_build_model.ini": "[model]\nbuild_model = 1\n",
        "key_from_file.ini": "[run]\nfrom_file = 1\n",
        "key_floats.ini": "[run]\n_FLOATS = 1\n",
        "key_coupling.ini": "[coupling]\ncoupling = zero\n",
        "key_dt_probe.ini": "[run]\ndt-probe = 0.004\n",
        "key_a_values.ini": "[run]\na_values = 0\n",
        "key_default_section.ini": "[DEFAULT]\nvalidate = 1\n[grid]\nn = 64\n",
        "default_section_bad_n.ini": "[DEFAULT]\nn = 300\n",
        "family_underscore.ini": "[model]\nfamily = quadratic_drift\n",
        "shift_on_edge.ini": "[model]\nfamily = mechanical\nshift = 1e150\n",
        "potential_deep.ini": "[model]\nfamily = mechanical\n"
                              "potential = double-well(0.5,1e308)\n",
        "potential_deep_1e19.ini": "[model]\nfamily = mechanical\n"
                                   "potential = double-well(0.5,1e19)\n",
    }
    commands = {"vmax_20_solve.ini": "solve", "a_values_empty.ini": "alpha",
                "csv_stride_negative.ini": "solve", "solve_9_tib.ini": "solve",
                "solve_161_gb.ini": "solve", "c_times_horizon_inf.ini": "solve"}
    unnamed_invariant = ("unknown_key.ini", "removed_key.ini", "dim_two.ini",
                         "no_section.ini", "duplicate_key.ini", "unknown_potential.ini",
                         "bad_potential_args.ini", "vmax_zero.ini", "vmax_nan.ini",
                         "vmax_negative.ini", "vmax_20.ini", "vmax_20_solve.ini",
                         "a_values_nan.ini", "a_values_empty.ini", "family_underscore.ini",
                         "shift_on_edge.ini", "potential_deep.ini", "potential_deep_1e19.ini",
                         "potential_empty_third.ini", "potential_empty_second.ini")
    for name in cases:
        if name.startswith("bump_"):
            commands[name] = "wasserstein"
            unnamed_invariant += (name,)
        if name.startswith("fourier_"):
            commands[name] = "periodic"
            unnamed_invariant += (name,)
        if name.startswith("example_dim_"):
            commands[name] = "verify-example"
            unnamed_invariant += (name,)
        if name.startswith("key_"):
            unnamed_invariant += (name,)
    named = {"bad_int.ini": "[grid] n", "bad_list.ini": "[run] horizons",
             "off_grid_horizon.ini": "horizon = 0.0015",
             "off_grid_calibration.ini": "calibration horizon = 0.75 is not a positive "
                                         "integer multiple of dt = 0.004",
             "window_over_horizon.ini": "window invariant violated: window = 1",
             "short_t_probe.ini": "t_probe invariant violated: t_probe = 2",
             "no_section.ini": "malformed config file",
             "duplicate_key.ini": "malformed config file",
             "unknown_potential.ini": "unknown potential id",
             "bad_potential_args.ini": "could not convert the parameters of "
                                       "'double-well(a,1)'",
             "fourier_empty_middle.ini": "could not convert the coefficients of "
                                         "'custom-fourier(1,,0)'",
             "fourier_empty_last.ini": "could not convert the coefficients of "
                                       "'custom-fourier(1,0,)'",
             "potential_empty_third.ini": "could not convert the parameters of "
                                          "'double-well(0.5,1,)'",
             "potential_empty_second.ini": "could not convert the parameters of "
                                           "'double-well(0.5,)'",
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
             "bump_subnormal_square.ini": "positive total",
             "bump_zero_square.ini": "width invariant violated: the width of "
                                     "'gaussian-bump(0.5,1e-300)' squares to 0",
             "bump_inf_square.ini": "width invariant violated: the width of "
                                    "'gaussian-bump(0.5,1e200)' squares to inf",
             "shift_overflow.ini": "Hamiltonian invariant violated: H is not finite",
             "potential_overflow.ini": "potential invariant violated: "
                                       "'double-well(1e+308,1e+308)' is not finite",
             "fourier_nan.ini": "custom-fourier needs finite coefficients",
             "fourier_inf.ini": "custom-fourier needs finite coefficients",
             "fourier_huge.ini": "custom-fourier needs a finite Lipschitz constant",
             "dim_two.ini": "unknown config key [model] dim",
             "bad_tol.ini": "tolerance invariant violated: tol_converge_final",
             "nan_tol.ini": "tolerance invariant violated: tol_converge_final",
             "c_nan.ini": "number invariant violated: c must be finite",
             "c_inf.ini": "number invariant violated: c must be finite",
             "a_values_nan.ini": "unknown config key [run] a_values",
             "a_values_empty.ini": "unknown config key [run] a_values",
             "csv_stride_negative.ini": "count invariant violated: periods and pairs "
                                        ">= 1, csv_stride >= 0",
             "shift_inf.ini": "number invariant violated: shift must be finite",
             "example_dim_zero.ini": "unknown config key [run] example_dim",
             "example_dim_negative.ini": "unknown config key [run] example_dim",
             "example_dim_five.ini": "unknown config key [run] example_dim",
             "example_dim_huge.ini": "unknown config key [run] example_dim",
             "solve_9_tib.ini": "memory invariant violated: solve would store 3.07e+13 "
                                "bytes, over the budget of 4.29e+09 bytes",
             "solve_161_gb.ini": "memory invariant violated: solve would store 1.61e+11 "
                                 "bytes",
             "c_times_horizon_inf.ini": "number invariant violated: c * horizon must be "
                                        "finite, got c = 1e+308, horizon = 3",
             "key_validate.ini": "unknown config key [run] validate",
             "key_as_dict.ini": "unknown config key [run] as_dict",
             "key_build_model.ini": "unknown config key [model] build_model",
             "key_from_file.ini": "unknown config key [run] from_file",
             "key_floats.ini": "unknown config key [run] _floats",
             "key_coupling.ini": "unknown config key [coupling] coupling",
             "key_dt_probe.ini": "unknown config key [run] dt-probe",
             "key_a_values.ini": "unknown config key [run] a_values",
             "key_default_section.ini": "unknown config key [DEFAULT] validate",
             "default_section_bad_n.ini": "grid invariant violated",
             "family_underscore.ini": "unknown model family 'quadratic_drift'",
             "shift_on_edge.ini": "Hamiltonian grows too slowly at |p| = 10",
             "potential_deep.ini": "Hamiltonian grows too slowly at |p| = 10",
             "potential_deep_1e19.ini": "Hamiltonian grows too slowly at |p| = 10"}
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code = main([commands.get(name, "critical-value"), "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2, name
        err = capsys.readouterr().err
        assert err.count("\n") == 1, name
        assert "invariant" in err or name in unnamed_invariant
        assert named.get(name, "") in err, name
        if name.startswith("off_grid"):
            assert "time-grid invariant" in err, name
    assert not (tmp_path / "out" / "u.csv").exists()
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xec\x80[grid]\n")
    assert main(["critical-value", "--config", str(binary), "--out", str(tmp_path / "out")]) == 2
    assert "malformed config file" in capsys.readouterr().err


@pytest.mark.parametrize("command, run", [
    pytest.param("periodic", "periods = 1000000000\n", id="periodic-periods"),
    pytest.param("lipschitz-c", "pairs = 1000000000\n", id="lipschitz-c-pairs"),
    pytest.param("converge", "horizons = 4000000\nwindow = 4000000\n", id="converge-window"),
])
def test_memory_invariant_refused_before_the_store_is_built(tmp_path, capsys, monkeypatch,
                                                            command, run):
    """periodic's three (periods k + 1) x n arrays and converge's windows,
    table rows and backtrack are estimated by their experiments once the
    probe gives tau; lipschitz-c's 2 pairs measures are estimated by the
    runner that builds them, before the probe runs.  A run over
    mfg.MAX_RUN_BYTES exits 2 on one line before it allocates them."""
    import mfglab.cli as cli
    probes = []
    probe = cli.critical_value
    monkeypatch.setattr(cli, "critical_value", lambda *a: probes.append(a) or probe(*a))
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[grid]\nn = 64\ndt = 0.004\n[run]\ndt_probe = 0.004\n{run}")
    tracemalloc.start()
    try:
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: memory invariant violated: {command} would store ")
    assert err.count("\n") == 1
    assert peak < 5e6
    assert len(probes) == (0 if command == "lipschitz-c" else 1)
    assert not (tmp_path / "out" / "summary.json").exists()


def test_converge_estimate_covers_its_traced_peak(tmp_path, monkeypatch):
    """converge's estimate, checked by the experiment before it allocates,
    is not below the traced peak of the whole run on the benchmark's grid
    (n = 512, dt = 0.004).  Like every store's estimate it counts the store
    that grows with the run and leaves out buffers that do not, a transport
    block's temporaries and the stepper's cost block, which add at most
    2.4 MB at n <= 512: so at n <= 256 its peak is above its estimate
    (0.77 MB estimated against 1.60 MB traced at n = 128), as periodic's,
    lipschitz-c's and solve's are at small n."""
    import mfglab.mfg as mfg
    estimates = []
    require = mfg.require_store
    monkeypatch.setattr(mfg, "require_store",
                        lambda label, nbytes: estimates.append(nbytes) or require(label, nbytes))
    cfg = tmp_path / "converge.ini"
    cfg.write_text(QD_CONFIG.replace("n = 256", "n = 512").replace("dt = 0.002", "dt = 0.004")
                   + "horizons = 1 2\nwindow = 0.5\nphi = cosine\n"
                   + "tol_converge_final = 0.5\n")
    tracemalloc.start()
    try:
        code = main(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(estimates) == 1 and estimates[0] >= peak, (estimates, peak)


def test_solve_memory_invariant_is_solve_s_own(tmp_path, capsys):
    """solve's (K + 1) x n store is estimated by solve alone: a horizon that
    solve could not hold leaves the subcommands that never read it alone."""
    cfg = tmp_path / "long.ini"
    cfg.write_text("[grid]\nn = 64\ndt = 0.004\n[run]\ndt_probe = 0.004\n"
                   "horizon = 40000000\n")
    for command in ("wasserstein", "critical-value"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    tracemalloc.start()
    try:
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("invalid input: memory invariant violated: solve would store 1.54e+13 "
                   "bytes, over the budget of 4.29e+09 bytes\n")
    assert peak < 5e6
    assert not (tmp_path / "out" / "summary.json").exists()


def test_every_field_is_a_key_of_its_declared_type(tmp_path):
    """A config file sets each RunConfig field under its own name, parsed
    to the type the field declares, and the summary embeds every field
    under that name."""
    fields = dataclasses.fields(RunConfig)
    assert len(fields) == 20
    for spec in fields:
        default = getattr(RunConfig(), spec.name)
        text = ", ".join(map(str, default)) if spec.type is list else str(default)
        path = tmp_path / f"{spec.name}.ini"
        path.write_text(f"[any]\n{spec.name} = {text}\n")
        value = getattr(RunConfig.from_file(path), spec.name)
        assert type(value) is spec.type and value == default, spec.name
        if spec.type is list:
            assert all(type(v) is float for v in value), spec.name
    out = tmp_path / "ws"
    assert main(["wasserstein", "--out", str(out)]) == 0
    assert sorted(read_summary(out)["config"]) == sorted(spec.name for spec in fields)


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
    ("verify-example", "", [], {"RESIDUAL_CLOSED_TOL": 0.0},
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
    # the last two have finite ends whose difference hi - lo overflows
    for grid in ("1:2", "a:b:3", "0:1:2.5", "0:1:-3", "0:1:0",
                 "-1e308:1e308:3", "-1.7e308:1.7e308:2"):
        code = main(["alpha", "--config", str(mech), f"--a-grid={grid}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, grid
        assert "a-grid invariant" in err and err.count("\n") == 1, err
        assert not (out / "alpha.csv").exists()
    # each shift's model is validated before the first probe runs
    for grid, fault in (("8:8:1", "shift a = 8: Hamiltonian grows too slowly"),
                        ("0:8:3", "shift a = 8: Hamiltonian grows too slowly"),
                        ("1e150:1e150:1", "shift a = 1e+150: Hamiltonian grows too slowly"),
                        ("1e200:1e200:1", "shift a = 1e+200: Hamiltonian invariant violated")):
        code = main(["alpha", "--config", str(mech), f"--a-grid={grid}", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, grid
        assert err.startswith(f"invalid input: a-grid invariant violated: {fault}"), err
        assert err.count("\n") == 1 and not (out / "alpha.csv").exists(), grid
    # a count whose shifts could not be held is refused before they are allocated
    code = main(["alpha", "--config", str(mech), "--a-grid=0:1:1000000000000000",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: memory invariant violated: alpha would store ")
    assert err.count("\n") == 1 and not (out / "alpha.csv").exists()
    # an --out that names a file, or a path through one, is refused on one line
    afile = tmp_path / "afile"
    afile.write_text("")
    for target in (afile, afile / "sub"):
        assert main(["wasserstein", "--out", str(target)]) == 2, target
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: cannot create output directory "
                              f"{str(target)!r}: "), err
        assert err.count("\n") == 1, err
    # verify-example samples fixed grids; it takes no size flag
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
    # inside an array value the line names the index
    monkeypatch.setattr(cli, "alpha_function",
                        lambda model, a, *args: math.nan if a == 0.0 else 1.0)
    mechanical = tmp_path / "mechanical.ini"
    mechanical.write_text(SMALL_MECHANICAL)
    out = tmp_path / "bad-alpha"
    assert main(["alpha", "--config", str(mechanical), "--out", str(out),
                 "--a-grid=-0.3:0.3:3"]) == 1
    assert capsys.readouterr().err == ("numerical failure: summary value extras.alpha[1] "
                                       "is not finite\n")
    assert not (out / "summary.json").exists()
